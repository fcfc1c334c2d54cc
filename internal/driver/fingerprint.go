package driver

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/burstbuffer"
	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/workload"
)

// ResultCache is a content-addressed memo for Monte-Carlo sweep points:
// Get returns the result previously stored under the key (and whether one
// was), Put stores one. Keys come from ExperimentKey, so equal keys mean
// bit-identical experiments under the pinned CRN schedule. A Session
// Gets from its cache (WithResultCache) once per distinct key of a
// SweepPoints run — Sweep and the campaign runner both run through it —
// and Puts every point it computes or is handed as already done.
//
// Implementations must be safe for concurrent use and must not let a
// later caller observe mutations made by an earlier one (clone slices on
// Put or Get). Package resultcache provides the standard implementation
// with an in-memory tier and an optional disk tier.
type ResultCache interface {
	Get(key string) (MCResult, bool)
	Put(key string, mc MCResult)
}

// experimentSpec is the canonical plain-data image of one cacheable
// Monte-Carlo experiment: the resolved configuration (defaults applied,
// the token-channel count normalised to 1 for shared-device disciplines
// that ignore it) plus the replication spec. Equal specs produce bit-identical MCResults, because
// every replicate is a pure function of (Seed, run index) under the CRN
// schedule and the fold is deterministic in run order.
type experimentSpec struct {
	Platform     platform.Platform
	Classes      []workload.Class
	Strategy     string
	Seed         uint64
	Gen          workload.GenConfig
	HorizonDays  float64
	WarmupDays   float64
	CooldownDays float64
	// Interference identifies the shared-device bandwidth model by its
	// dynamic type and parameters. User models must therefore encode
	// everything behaviour-relevant in their struct fields.
	Interference string
	// Channels is normalised to 1 when the discipline ignores the token
	// count — the provably-duplicate k-axis cells of a channel sweep.
	Channels           int
	FailureModel       int
	WeibullShape       float64
	BurstBuffer        *burstbuffer.Config
	DisableFailures    bool
	DisableCheckpoints bool
	BaselineIO         bool
	PairedBaseline     bool

	// Runs is the effective replicate budget (MaxRuns under sequential
	// stopping, else the requested count).
	Runs int
	// TargetCI is the resolved stopping rule; MaxRuns is folded into Runs
	// and zeroed here, and a disabled rule keeps only its Confidence
	// (which still selects the reported CIHalfWidth level).
	TargetCI        TargetCI
	Antithetic      bool
	KeepResults     bool
	KeepWasteRatios bool
}

// ExperimentKey returns the content-address of the Monte-Carlo experiment
// (cfg, runs, opts) — the sha256 of its canonical spec, in hex — and
// whether the experiment is cacheable at all. Experiments with per-run
// observers (OnResult, Trace) or a transformed CI estimand are not
// cacheable: a cache hit would skip the simulation their hooks observe.
//
// Strategies are identified by Name(); user-registered strategies must
// use distinct names for distinct behaviours, as the registry already
// requires.
func ExperimentKey(cfg engine.Config, runs int, opts MCOptions) (string, bool) {
	if runs <= 0 || cfg.Trace != nil ||
		opts.OnResult != nil || opts.ciValue != nil {
		return "", false
	}
	c := cfg.WithDefaults()
	seq := opts.TargetCI.withDefaults()
	total := opts.budget(runs)
	if seq.HalfWidth <= 0 {
		seq = TargetCI{Confidence: seq.Confidence}
	}
	seq.MaxRuns = 0
	spec := experimentSpec{
		Platform:           c.Platform,
		Classes:            c.Classes,
		Strategy:           c.Strategy.Name(),
		Seed:               c.Seed,
		Gen:                c.Gen,
		HorizonDays:        c.HorizonDays,
		WarmupDays:         c.WarmupDays,
		CooldownDays:       c.CooldownDays,
		Interference:       fmt.Sprintf("%T%+v", c.Interference, c.Interference),
		Channels:           c.Channels,
		FailureModel:       int(c.FailureModel),
		WeibullShape:       c.WeibullShape,
		BurstBuffer:        c.BurstBuffer,
		DisableFailures:    c.DisableFailures,
		DisableCheckpoints: c.DisableCheckpoints,
		BaselineIO:         c.BaselineIO,
		PairedBaseline:     c.PairedBaseline,
		Runs:               total,
		TargetCI:           seq,
		Antithetic:         opts.Antithetic,
		KeepResults:        opts.KeepResults,
		KeepWasteRatios:    opts.KeepWasteRatios,
	}
	if !c.Strategy.Discipline.UsesToken() {
		spec.Channels = 1
	}
	b, err := json.Marshal(spec)
	if err != nil {
		return "", false
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), true
}
