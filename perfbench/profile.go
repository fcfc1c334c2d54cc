package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// layerOf maps a fully qualified Go function name to the layer whose
// cpu_share it counts towards: a package of this module by its last
// path element, a few standard-library groups, or "other".
func layerOf(fn string) string {
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.TrimPrefix(pkg, "repro/internal/")
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[:i]
		}
		return name
	case pkg == "syscall" || pkg == "internal/runtime/syscall" || pkg == "internal/poll" ||
		strings.HasPrefix(pkg, "internal/syscall/"):
		return "syscall"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || pkg == "internal/bytealg":
		return "runtime"
	case pkg == "encoding/json":
		return "encoding_json"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "net_http"
	}
	return "other"
}

// cpuLayers reads a CPU profile through `go tool pprof -traces` and adds
// each sample's CPU time to one layer: the innermost frame on its stack
// that belongs to this module's internal packages, so the runtime and
// standard-library time a layer causes counts against that layer. A
// stack with no such frame counts towards the group of its leaf frame.
// The shares of all layers sum to one. It returns the per-layer
// nanoseconds.
func cpuLayers(path string) (map[string]int64, error) {
	raw, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTraces(raw)
}

// foldTraces folds the text `go tool pprof -traces` prints: after the
// header, samples separated by dashed lines, each a value and the leaf
// function on its first line and one caller per line after it.
func foldTraces(raw []byte) (map[string]int64, error) {
	out := map[string]int64{}
	var value time.Duration
	var leaf, inner string // inner: innermost internal package, if any
	started, inSample := false, false
	flush := func() {
		if !inSample {
			return
		}
		if inner == "" {
			inner = leaf
		}
		out[inner] += int64(value)
		inSample = false
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			started = true
			continue
		}
		fields := strings.Fields(line)
		if !started || len(fields) == 0 {
			continue
		}
		fn := fields[0]
		if !inSample {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: cannot read %q", line)
			}
			value, fn, inSample = d, fields[1], true
			leaf, inner = layerOf(fn), ""
		}
		if inner == "" && strings.HasPrefix(fn, "repro/internal/") {
			inner = layerOf(fn)
		}
	}
	flush()
	return out, sc.Err()
}
