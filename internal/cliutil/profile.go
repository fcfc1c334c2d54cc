package cliutil

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
)

// StartProfiles starts CPU profiling to cpuPath and arranges a heap
// profile at memPath, either of which may be empty to skip it. The
// returned stop function flushes both, reporting a heap-profile error on
// stderr; it is idempotent. A command defers it, so the profiles are
// written on every exit path, ^C and errors included:
//
//	stop, err := cliutil.StartProfiles(*cpuprofile, *memprofile, stderr)
//	if err != nil { return err }
//	defer stop()
func StartProfiles(cpuPath, memPath string, stderr io.Writer) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			if memPath != "" {
				f, err := os.Create(memPath)
				if err != nil {
					fmt.Fprintf(stderr, "-memprofile: %v\n", err)
					return
				}
				defer f.Close()
				runtime.GC() // materialise the live set before the snapshot
				if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
					fmt.Fprintf(stderr, "-memprofile: %v\n", err)
				}
			}
		})
	}, nil
}
