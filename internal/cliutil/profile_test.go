package cliutil

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	stop, err := StartProfiles(cpu, mem, io.Discard)
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
}

func TestStartProfilesDisabled(t *testing.T) {
	stop, err := StartProfiles("", "", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	stop()
}

func TestStartProfilesBadPath(t *testing.T) {
	if _, err := StartProfiles(filepath.Join(t.TempDir(), "no", "such", "dir.pprof"), "", io.Discard); err == nil {
		t.Fatal("unwritable cpu profile path accepted")
	}
}
