package cliutil

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/driver"
)

// CampaignFlags binds the crash-resilience flags shared by the coopsim
// and paperfigs front ends: journal/resume durability plus the per-point
// deadline of the campaign layer.
type CampaignFlags struct {
	// Journal is the -journal path ("" = unjournaled).
	Journal string
	// Resume is -resume: continue an existing journal.
	Resume bool
	// PointTimeout is -point-timeout, the per-point deadline.
	PointTimeout time.Duration
}

// AddCampaignFlags registers -journal, -resume and -point-timeout on the
// flag set and returns the bound struct.
func AddCampaignFlags(fs *flag.FlagSet) *CampaignFlags {
	cf := &CampaignFlags{}
	fs.StringVar(&cf.Journal, "journal", "",
		"journal campaign progress to this file (append-only, CRC-framed, crash-safe); a later -resume continues bit-identically")
	fs.BoolVar(&cf.Resume, "resume", false,
		"resume the -journal file: completed points replay instantly, a partial or failed point restarts from its last snapshot")
	fs.DurationVar(&cf.PointTimeout, "point-timeout", 0,
		"deadline per point (e.g. 10m), counted from its first dispatched replicate; a point past it is quarantined at its next replicate boundary (0 = none)")
	return cf
}

// Enabled reports whether any campaign feature was requested, i.e.
// whether the run must route through the campaign layer instead of a
// plain Session sweep.
func (cf *CampaignFlags) Enabled() bool {
	return cf.Journal != "" || cf.Resume || cf.PointTimeout > 0
}

// CampaignOptions assembles the campaign.Options for a run, folding in
// the session-level knobs the campaign forwards to its session.
// journalSuffix distinguishes multiple campaigns sharing one -journal
// flag value (paperfigs appends ".fig1"/".fig2" — each figure is its own
// campaign with its own fingerprint).
func (cf *CampaignFlags) CampaignOptions(journalSuffix string, workers int, antithetic bool, tci driver.TargetCI, progress func(done, total int)) (campaign.Options, error) {
	journal := cf.Journal
	if journal != "" && journalSuffix != "" {
		journal += journalSuffix
	}
	if cf.Resume && journal == "" {
		return campaign.Options{}, fmt.Errorf("-resume needs -journal")
	}
	return campaign.Options{
		JournalPath:  journal,
		Resume:       cf.Resume,
		PointTimeout: cf.PointTimeout,
		Workers:      workers,
		Antithetic:   antithetic,
		TargetCI:     tci,
		Progress:     progress,
	}, nil
}
