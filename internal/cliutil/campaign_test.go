package cliutil

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/driver"
)

// parseCampaignFlags registers the campaign flags on a fresh
// ContinueOnError set and parses args into them.
func parseCampaignFlags(args ...string) (*CampaignFlags, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cf := AddCampaignFlags(fs)
	return cf, fs.Parse(args)
}

func TestCampaignFlags(t *testing.T) {
	cf, err := parseCampaignFlags()
	if err != nil || cf.Enabled() {
		t.Fatalf("no flags: enabled %v, err %v", cf.Enabled(), err)
	}

	// -point-timeout alone routes through the campaign layer and reaches
	// its options.
	cf, err = parseCampaignFlags("-point-timeout", "5m")
	if err != nil {
		t.Fatal(err)
	}
	if !cf.Enabled() {
		t.Fatal("-point-timeout 5m alone left the campaign layer off")
	}
	opts, err := cf.CampaignOptions("", 3, false, driver.TargetCI{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if opts.PointTimeout != 5*time.Minute || opts.JournalPath != "" || opts.Workers != 3 {
		t.Fatalf("-point-timeout 5m gave options %+v", opts)
	}

	cf, err = parseCampaignFlags("-journal", "c.journal", "-resume")
	if err != nil {
		t.Fatal(err)
	}
	opts, err = cf.CampaignOptions(".fig1", 0, false, driver.TargetCI{}, nil)
	if err != nil || opts.JournalPath != "c.journal.fig1" || !opts.Resume {
		t.Fatalf("-journal c.journal -resume gave options %+v, err %v", opts, err)
	}

	cf, err = parseCampaignFlags("-resume")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cf.CampaignOptions("", 0, false, driver.TargetCI{}, nil); err == nil {
		t.Fatal("-resume without -journal accepted")
	}

	// Points get one attempt per run; the retry flag is gone.
	if _, err := parseCampaignFlags("-retry", "3"); err == nil ||
		!strings.Contains(err.Error(), "flag provided but not defined: -retry") {
		t.Fatalf("-retry 3 parsed (err %v), want an unknown-flag error", err)
	}
}
