package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro"
)

// derive maps (seed, i) to an input seed with splitmix64, so every input
// of a run is a pure function of the workload seed.
func derive(seed, i uint64) uint64 {
	x := seed ^ (i+1)*0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// baseConfig is every workload's scenario: Cielo at 40 GB/s with a
// 2-year node MTBF, running the APEX classes.
func baseConfig(days float64) repro.Config {
	return repro.Config{
		Platform:    repro.Cielo(40, 2),
		Classes:     repro.APEXClasses(),
		Strategy:    repro.LeastWaste(),
		HorizonDays: days,
	}
}

// canon renders every compared field of a Monte-Carlo result exactly
// (shortest round-trip floats), leaving out the Cached provenance flag,
// which a cache hit and its reference rightly disagree on.
func canon(mc repro.MCResult) string {
	var b strings.Builder
	f := func(x float64) {
		b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
		b.WriteByte('|')
	}
	b.WriteString(mc.Strategy)
	b.WriteByte('|')
	s := mc.Summary
	b.WriteString(strconv.Itoa(s.N))
	b.WriteByte('|')
	for _, x := range []float64{s.Mean, s.Min, s.Max, s.P10, s.P25, s.P50, s.P75, s.P90, s.StdDev,
		mc.MeanUtilization, mc.MeanFailures, mc.CIHalfWidth, mc.Confidence} {
		f(x)
	}
	b.WriteString(strconv.Itoa(mc.RunsUsed))
	return b.String()
}

// digester hashes canonical results in result order.
type digester struct{ h []string }

func (d *digester) add(s string) { d.h = append(d.h, s) }

func (d *digester) sum() string {
	h := sha256.New()
	for _, s := range d.h {
		h.Write([]byte(s))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// matches compares a result with its reference. Under the corrupt-
// reference self-test the reference of result 0 is off by one ulp.
func (e *env) matches(i int, ref, got repro.MCResult) bool {
	if e.corruptRef && i == 0 {
		ref.MeanUtilization = math.Nextafter(ref.MeanUtilization, 2)
	}
	return canon(ref) == canon(got)
}

// gateWorkers is the gate's parallelism: both CPUs, except for work
// whose time a per-layer metric needs on one worker.
const gateWorkers = 2

// parallel runs fn(w, i) for i in [0, n) on the given number of
// goroutines, each with its own worker index w, and returns the first
// error.
func parallel(ctx context.Context, workers, n int, fn func(w, i int) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(w, i); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
