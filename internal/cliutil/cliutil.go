// Package cliutil holds the flag-resolution helpers shared by the command
// line front ends (coopsim, paperfigs, lowerbound, traceview, coopsimd):
// strategy-list and platform resolution, sweep-range and channel-list
// parsing, and Main, the one way out of every command: the
// SIGINT-driven cancellation context each runs under and the mapping
// from its error to an exit status.
package cliutil

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/driver"
	"repro/internal/engine"
	"repro/internal/platform"
)

// Strategies resolves a -strategy flag value against the engine registry:
// "all" is every registered strategy in registration order, "legend" is
// exactly the paper's seven §6 legend variants, and anything else is a
// comma-separated list of registered names.
func Strategies(spec string) ([]engine.Strategy, error) {
	switch spec {
	case "all":
		return engine.AllStrategies(), nil
	case "legend":
		return engine.LegendStrategies(), nil
	}
	var out []engine.Strategy
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		s, ok := engine.StrategyByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown strategy %q (try -list)", name)
		}
		out = append(out, s)
	}
	return out, nil
}

// Platform resolves a -platform flag value with the given bandwidth
// (GB/s) and node MTBF (years): "cielo" or "prospective".
func Platform(name string, bwGBps, mtbfYears float64) (platform.Platform, error) {
	p, ok := platform.Preset(name, bwGBps, mtbfYears)
	if !ok {
		return platform.Platform{}, fmt.Errorf("unknown platform %q (cielo or prospective)", name)
	}
	return p, nil
}

// Channels parses a -channels flag value: a comma-separated list of
// positive token-channel counts.
func Channels(spec string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		k, err := strconv.Atoi(part)
		if err != nil || k < 1 {
			return nil, fmt.Errorf("-channels %q: bad count %q", spec, part)
		}
		out = append(out, k)
	}
	return out, nil
}

// TargetCI parses a -target-ci flag value of the form
// "halfWidth[:confidence[:minRuns[:maxRuns]]]" into a sequential-stopping
// target; the empty string keeps fixed-runs behaviour (the zero TargetCI).
// Omitted components select the driver defaults (confidence 0.95,
// minRuns 8, maxRuns = the experiment's -runs).
func TargetCI(spec string) (driver.TargetCI, error) {
	var t driver.TargetCI
	if spec == "" {
		return t, nil
	}
	parts := strings.Split(spec, ":")
	if len(parts) > 4 {
		return t, fmt.Errorf("-target-ci %q: more than four components", spec)
	}
	hw, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil || hw <= 0 {
		return t, fmt.Errorf("-target-ci %q: bad half-width %q", spec, parts[0])
	}
	t.HalfWidth = hw
	if len(parts) > 1 {
		c, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil || c <= 0 || c >= 1 {
			return t, fmt.Errorf("-target-ci %q: confidence %q outside (0,1)", spec, parts[1])
		}
		t.Confidence = c
	}
	for i, dst := range []*int{&t.MinRuns, &t.MaxRuns} {
		if len(parts) > 2+i {
			n, err := strconv.Atoi(strings.TrimSpace(parts[2+i]))
			if err != nil || n < 0 {
				return t, fmt.Errorf("-target-ci %q: bad run bound %q", spec, parts[2+i])
			}
			*dst = n
		}
	}
	if t.MaxRuns > 0 && t.MinRuns > t.MaxRuns {
		return t, fmt.Errorf("-target-ci %q: minRuns %d above maxRuns %d", spec, t.MinRuns, t.MaxRuns)
	}
	return t, nil
}

// SweepRange parses a sweep flag value of the form "lo:hi:step" with
// positive components.
func SweepRange(spec string) (lo, hi, step float64, err error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("sweep %q not of the form lo:hi:step", spec)
	}
	vals := make([]float64, 3)
	for i, part := range parts {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 {
			return 0, 0, 0, fmt.Errorf("sweep %q: bad component %q", spec, part)
		}
		vals[i] = v
	}
	return vals[0], vals[1], vals[2], nil
}

// SweepValues expands a "lo:hi:step" sweep flag into its inclusive value
// list (with a small epsilon so hi lands in the list despite float
// accumulation).
func SweepValues(spec string) ([]float64, error) {
	lo, hi, step, err := SweepRange(spec)
	if err != nil {
		return nil, err
	}
	var out []float64
	for v := lo; v <= hi+1e-9; v += step {
		out = append(out, v)
	}
	return out, nil
}

// InterruptContext returns a context cancelled on SIGINT or SIGTERM. The
// CLIs run every experiment under it: the first signal cancels the
// session (workers drain, partial output stays flushed, the command exits
// non-zero), a second signal kills the process through the restored
// default handler — cancellation is only observed at replicate
// boundaries, so a long in-flight drain must stay escapable. Main runs
// every command under it.
func InterruptContext() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		// Once the first signal (or stop) fires, unregister the notify
		// channel so the default handler is back for the second signal.
		<-ctx.Done()
		stop()
	}()
	return ctx, stop
}
