package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/burstbuffer"
	"repro/internal/platform"
	"repro/internal/workload"
)

// ResultCache is a content-addressed memo for Monte-Carlo sweep points:
// Get returns the result previously stored under the key (and whether one
// was), Put stores one. Keys come from ExperimentKey, so equal keys mean
// bit-identical experiments under the pinned CRN schedule. A Session
// consults its cache (WithResultCache) once per cacheable SweepPoints
// point — Sweep and the campaign runner both run through it — and Puts
// every point it computes or is handed as already done.
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
// cacheable: a memo hit would skip the simulation their hooks observe.
//
// Strategies are identified by Name(); user-registered strategies must
// use distinct names for distinct behaviours, as the registry already
// requires.
func ExperimentKey(cfg Config, runs int, opts MCOptions) (string, bool) {
	if runs <= 0 || cfg.Trace != nil ||
		opts.OnResult != nil || opts.ciValue != nil {
		return "", false
	}
	c := cfg.withDefaults()
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

// cloneMCResult deep-copies the slice-valued fields so a memoised result
// handed out twice cannot alias mutations between consumers.
func cloneMCResult(mc MCResult) MCResult {
	mc.WasteRatios = slices.Clone(mc.WasteRatios)
	mc.Results = slices.Clone(mc.Results)
	return mc
}

// sweepMemo is the per-sweep memo the grid coordinator consults: an
// in-grid tier (repeated cells within one grid — the k-axis ×
// shared-device case) backed by the session's ResultCache, when one is
// installed. A nil memo disables memoisation: per-run observers must see
// every simulation, and single experiments (MonteCarlo, the paired
// comparison, bisection probes) are never memoised.
type sweepMemo struct {
	runs  int
	opts  MCOptions
	cache ResultCache
	seen  map[string]MCResult
}

// newSweepMemo builds the memo for one sweep, or nil when the session's
// options make memoisation unobservable-preserving impossible.
func newSweepMemo(s *Session, runs int) *sweepMemo {
	if s.opts.OnResult != nil {
		return nil
	}
	return &sweepMemo{runs: runs, opts: s.opts, cache: s.cache, seen: map[string]MCResult{}}
}

// key returns the point's content-address, or "" when uncacheable.
func (m *sweepMemo) key(cfg Config) string {
	if m == nil {
		return ""
	}
	k, ok := ExperimentKey(cfg, m.runs, m.opts)
	if !ok {
		return ""
	}
	return k
}

// lookup returns the memoised result for the key, marked Cached, checking
// the in-grid tier before the session cache.
func (m *sweepMemo) lookup(key string) (MCResult, bool) {
	if m == nil || key == "" {
		return MCResult{}, false
	}
	if mc, ok := m.seen[key]; ok {
		mc = cloneMCResult(mc)
		mc.Cached = true
		return mc, true
	}
	if m.cache != nil {
		if mc, ok := m.cache.Get(key); ok {
			m.seen[key] = cloneMCResult(mc)
			mc.Cached = true
			return mc, true
		}
	}
	return MCResult{}, false
}

// store memoises a computed or replayed point in both tiers, clearing
// its provenance flag so entries stay canonical.
func (m *sweepMemo) store(key string, mc MCResult) {
	if m == nil || key == "" {
		return
	}
	mc.Cached = false
	m.seen[key] = cloneMCResult(mc)
	if m.cache != nil {
		m.cache.Put(key, cloneMCResult(mc))
	}
}
