package cliutil

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has samples to write.
	x := 0
	for i := 0; i < 1<<20; i++ {
		x += i * i
	}
	_ = x
	stop()
	stop() // idempotent
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile %s: %v", path, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
	// After stop, the ExitInterrupted hook must be unregistered.
	profileMu.Lock()
	registered := profileStop != nil
	profileMu.Unlock()
	if registered {
		t.Fatal("profile stop still registered after stop()")
	}
}

func TestStartProfilesDisabled(t *testing.T) {
	stop, err := StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	stop()
	flushProfiles() // no-op without a registration
}

func TestStartProfilesBadPath(t *testing.T) {
	if _, err := StartProfiles(filepath.Join(t.TempDir(), "no", "such", "dir.pprof"), ""); err == nil {
		t.Fatal("unwritable cpu profile path accepted")
	}
}
