// Package api is the wire layer of the coopsimd service: a canonical
// JSON encoding of the engine's experiment types — engine.Config,
// driver.SweepGrid and the Monte-Carlo options — with strategies
// resolved by registry name, strict decoding (unknown fields
// are errors, not silent drops), and validation that surfaces every
// field error at once. The same types frame the service's streaming
// results and management responses, so a campaign submitted over HTTP is
// specified by exactly the data the in-process Session consumes:
// resolving a decoded spec and running it yields results bit-identical
// to the equivalent direct Session call.
package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/burstbuffer"
	"repro/internal/campaign"
	"repro/internal/driver"
	"repro/internal/engine"
	"repro/internal/failure"
	"repro/internal/iomodel"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Platform specifies the simulated machine, either as a preset (Name
// "cielo" or "prospective" with the two swept parameters in human units)
// or fully explicit (Nodes > 0 selects the explicit form; the preset
// fields are then rejected). The explicit form uses raw engine units so
// an encoded platform round-trips exactly.
type Platform struct {
	Name string `json:"name"`
	// Preset form (Nodes == 0): the two Figure 1/2 parameters.
	BandwidthGBps float64 `json:"bandwidth_gbps,omitempty"`
	NodeMTBFYears float64 `json:"node_mtbf_years,omitempty"`
	// Explicit form (Nodes > 0): raw platform.Platform fields.
	Nodes           int     `json:"nodes,omitempty"`
	MemoryBytes     float64 `json:"memory_bytes,omitempty"`
	BandwidthBps    float64 `json:"bandwidth_bps,omitempty"`
	NodeMTBFSeconds float64 `json:"node_mtbf_seconds,omitempty"`
}

// Class mirrors workload.Class field for field.
type Class struct {
	Name            string  `json:"name"`
	Share           float64 `json:"share"`
	WorkHours       float64 `json:"work_hours"`
	MachineFraction float64 `json:"machine_fraction"`
	InputPctMem     float64 `json:"input_pct_mem,omitempty"`
	OutputPctMem    float64 `json:"output_pct_mem,omitempty"`
	CkptPctMem      float64 `json:"ckpt_pct_mem,omitempty"`
	RegularIOPctMem float64 `json:"regular_io_pct_mem,omitempty"`
	RegularIOPhases int     `json:"regular_io_phases,omitempty"`
}

// Gen mirrors workload.GenConfig; a nil Gen selects the engine default.
type Gen struct {
	MinDays  float64 `json:"min_days,omitempty"`
	Buffer   float64 `json:"buffer,omitempty"`
	ShareTol float64 `json:"share_tol,omitempty"`
	// Law names the job-duration distribution: "uniform20" (default) or
	// "normal20".
	Law     string `json:"law,omitempty"`
	MaxJobs int    `json:"max_jobs,omitempty"`
}

// Interference names the shared-device bandwidth model: "linear" (the
// default), "unlimited", or "degraded" with its Gamma parameter.
type Interference struct {
	Model string  `json:"model"`
	Gamma float64 `json:"gamma,omitempty"`
}

// BurstBuffer mirrors burstbuffer.Config; Period is "cooperative" (the
// default) or "naive".
type BurstBuffer struct {
	PerNodeBandwidthBps float64 `json:"per_node_bandwidth_bps"`
	Resilient           bool    `json:"resilient,omitempty"`
	DrainToPFS          bool    `json:"drain_to_pfs,omitempty"`
	Period              string  `json:"period,omitempty"`
}

// Config is the wire image of engine.Config. Strategies resolve by
// engine-registry name; zero-valued
// optional fields select the engine's documented defaults exactly as the
// in-process Config does.
type Config struct {
	Platform Platform `json:"platform"`
	// Classes is the application-class set; empty selects the paper's
	// APEX workload (workload.APEXClasses).
	Classes []Class `json:"classes,omitempty"`
	// Strategy is a registry name (e.g. "Ordered-NB-Daly"). It may stay
	// empty when the sweep grid carries the strategy axis.
	Strategy     string        `json:"strategy,omitempty"`
	Seed         uint64        `json:"seed"`
	HorizonDays  float64       `json:"horizon_days,omitempty"`
	WarmupDays   float64       `json:"warmup_days,omitempty"`
	CooldownDays float64       `json:"cooldown_days,omitempty"`
	Gen          *Gen          `json:"gen,omitempty"`
	Interference *Interference `json:"interference,omitempty"`
	Channels     int           `json:"channels,omitempty"`
	// FailureModel is "exponential" (default) or "weibull" (with
	// WeibullShape).
	FailureModel       string       `json:"failure_model,omitempty"`
	WeibullShape       float64      `json:"weibull_shape,omitempty"`
	BurstBuffer        *BurstBuffer `json:"burst_buffer,omitempty"`
	DisableFailures    bool         `json:"disable_failures,omitempty"`
	DisableCheckpoints bool         `json:"disable_checkpoints,omitempty"`
	BaselineIO         bool         `json:"baseline_io,omitempty"`
	PairedBaseline     bool         `json:"paired_baseline,omitempty"`

	// LegacyScheduler lets specs written while the engine had an
	// event-queue knob still decode: "auto", "heap4" and "calendar" are
	// accepted and ignored (there is one event queue), anything else is
	// an error. Encoders leave it empty.
	LegacyScheduler string `json:"scheduler,omitempty"`
}

// FailureSpec is one point of a sweep's failure axis.
type FailureSpec struct {
	Model        string  `json:"model"`
	WeibullShape float64 `json:"weibull_shape,omitempty"`
}

// SweepGrid is the wire image of driver.SweepGrid, with strategies by
// registry name and the platform axes in raw engine units.
type SweepGrid struct {
	BandwidthsBps   []float64     `json:"bandwidths_bps,omitempty"`
	NodeMTBFSeconds []float64     `json:"node_mtbf_seconds,omitempty"`
	FailureSpecs    []FailureSpec `json:"failure_specs,omitempty"`
	Channels        []int         `json:"channels,omitempty"`
	Strategies      []string      `json:"strategies,omitempty"`
}

// TargetCI is the wire image of driver.TargetCI.
type TargetCI struct {
	HalfWidth  float64 `json:"half_width"`
	Confidence float64 `json:"confidence,omitempty"`
	MinRuns    int     `json:"min_runs,omitempty"`
	MaxRuns    int     `json:"max_runs,omitempty"`
}

// MCOptions carries the replication options a campaign submission may
// set: sequential stopping and antithetic variates. The materialisation
// knobs (KeepResults etc.) are intentionally absent — the service always
// streams through the O(1)-memory path.
type MCOptions struct {
	TargetCI   *TargetCI `json:"target_ci,omitempty"`
	Antithetic bool      `json:"antithetic,omitempty"`
}

// CampaignSpec is the body of POST /v1/campaigns: one sweep campaign.
type CampaignSpec struct {
	// Name is an optional human label echoed in listings.
	Name   string    `json:"name,omitempty"`
	Config Config    `json:"config"`
	Grid   SweepGrid `json:"grid"`
	// Runs is the Monte-Carlo replication count per grid point (the
	// replicate cap under a target CI).
	Runs    int       `json:"runs"`
	Options MCOptions `json:"options"`
}

// Resolved is a campaign spec lowered onto the engine's types, ready to
// hand to the campaign layer.
type Resolved struct {
	Base       engine.Config
	Grid       driver.SweepGrid
	Runs       int
	TargetCI   driver.TargetCI
	Antithetic bool
}

// DecodeCampaignSpec decodes a campaign submission strictly: unknown
// fields, malformed JSON and trailing garbage are errors. It does not
// validate — call Validate (or Resolve) on the result.
func DecodeCampaignSpec(r io.Reader) (CampaignSpec, error) {
	var spec CampaignSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("api: decode campaign spec: %w", err)
	}
	if dec.More() {
		return spec, errors.New("api: decode campaign spec: trailing data after the JSON object")
	}
	return spec, nil
}

// Validate reports every error in the spec at once, joined with
// errors.Join — unresolvable names, malformed axes, and everything the
// resolved engine.Config.Validate finds.
func (s CampaignSpec) Validate() error {
	_, err := s.Resolve()
	return err
}

// Resolve lowers the spec onto the engine types, collecting every error
// rather than stopping at the first. On error the Resolved value is
// meaningless.
func (s CampaignSpec) Resolve() (Resolved, error) {
	var errs []error
	collect := func(err error) {
		if err != nil {
			errs = append(errs, err)
		}
	}

	base, err := s.Config.Resolve()
	collect(err)
	grid, err := s.Grid.Resolve()
	collect(err)
	if s.Runs <= 0 {
		collect(fmt.Errorf("api: runs must be positive, got %d", s.Runs))
	}
	var tci driver.TargetCI
	if t := s.Options.TargetCI; t != nil {
		tci = driver.TargetCI{
			HalfWidth:  t.HalfWidth,
			Confidence: t.Confidence,
			MinRuns:    t.MinRuns,
			MaxRuns:    t.MaxRuns,
		}
		if t.HalfWidth <= 0 {
			collect(fmt.Errorf("api: target_ci.half_width must be positive, got %v", t.HalfWidth))
		}
		if t.Confidence < 0 || t.Confidence >= 1 {
			collect(fmt.Errorf("api: target_ci.confidence %v outside [0,1)", t.Confidence))
		}
		if t.MinRuns < 0 || t.MaxRuns < 0 {
			collect(fmt.Errorf("api: target_ci run bounds must be non-negative"))
		} else if t.MaxRuns > 0 && t.MinRuns > t.MaxRuns {
			collect(fmt.Errorf("api: target_ci.min_runs %d above max_runs %d", t.MinRuns, t.MaxRuns))
		}
	}
	// The base strategy may stay empty only when the grid carries the
	// strategy axis — a zero Strategy would silently select the engine
	// default, which a wire submission should never do implicitly.
	if s.Config.Strategy == "" && len(s.Grid.Strategies) == 0 {
		collect(errors.New("api: no strategy: set config.strategy or grid.strategies"))
	}
	if len(errs) == 0 {
		collect(base.Validate())
	}
	if err := errors.Join(errs...); err != nil {
		return Resolved{}, err
	}
	return Resolved{Base: base, Grid: grid, Runs: s.Runs, TargetCI: tci, Antithetic: s.Options.Antithetic}, nil
}

// Resolve lowers the wire config onto engine.Config, collecting every
// resolution error (this method does not run engine validation — the
// spec-level Resolve does, once the names resolve).
func (c Config) Resolve() (engine.Config, error) {
	var errs []error
	out := engine.Config{
		Seed:               c.Seed,
		HorizonDays:        c.HorizonDays,
		WarmupDays:         c.WarmupDays,
		CooldownDays:       c.CooldownDays,
		Channels:           c.Channels,
		WeibullShape:       c.WeibullShape,
		DisableFailures:    c.DisableFailures,
		DisableCheckpoints: c.DisableCheckpoints,
		BaselineIO:         c.BaselineIO,
		PairedBaseline:     c.PairedBaseline,
	}

	plat, err := c.Platform.Resolve()
	if err != nil {
		errs = append(errs, err)
	}
	out.Platform = plat

	if len(c.Classes) == 0 {
		out.Classes = workload.APEXClasses()
	} else {
		out.Classes = make([]workload.Class, len(c.Classes))
		for i, cl := range c.Classes {
			out.Classes[i] = workload.Class(cl)
		}
	}

	if c.Strategy != "" {
		strat, ok := engine.StrategyByName(c.Strategy)
		if !ok {
			errs = append(errs, fmt.Errorf("api: unknown strategy %q", c.Strategy))
		}
		out.Strategy = strat
	}
	switch c.LegacyScheduler {
	case "", "auto", "heap4", "calendar":
	default:
		errs = append(errs, fmt.Errorf("api: unknown scheduler %q (legacy field: auto, heap4 or calendar, all ignored)", c.LegacyScheduler))
	}
	model, err := resolveFailureModel(c.FailureModel)
	if err != nil {
		errs = append(errs, err)
	}
	out.FailureModel = model

	if c.Gen != nil {
		gen, err := c.Gen.resolve()
		if err != nil {
			errs = append(errs, err)
		}
		out.Gen = gen
	}
	if c.Interference != nil {
		m, err := c.Interference.resolve()
		if err != nil {
			errs = append(errs, err)
		}
		out.Interference = m
	}
	if c.BurstBuffer != nil {
		bb, err := c.BurstBuffer.resolve()
		if err != nil {
			errs = append(errs, err)
		}
		out.BurstBuffer = bb
	}
	return out, errors.Join(errs...)
}

// Resolve lowers the wire platform, rejecting mixed preset/explicit
// forms.
func (p Platform) Resolve() (platform.Platform, error) {
	if p.Nodes > 0 {
		if p.BandwidthGBps != 0 || p.NodeMTBFYears != 0 {
			return platform.Platform{}, errors.New("api: platform: explicit form (nodes > 0) must not set bandwidth_gbps/node_mtbf_years")
		}
		return platform.Platform{
			Name:            p.Name,
			Nodes:           p.Nodes,
			MemoryBytes:     p.MemoryBytes,
			BandwidthBps:    p.BandwidthBps,
			NodeMTBFSeconds: p.NodeMTBFSeconds,
		}, nil
	}
	if p.MemoryBytes != 0 || p.BandwidthBps != 0 || p.NodeMTBFSeconds != 0 {
		return platform.Platform{}, errors.New("api: platform: preset form must not set memory_bytes/bandwidth_bps/node_mtbf_seconds (set nodes for the explicit form)")
	}
	plat, ok := platform.Preset(p.Name, p.BandwidthGBps, p.NodeMTBFYears)
	if !ok {
		return platform.Platform{}, fmt.Errorf("api: unknown platform preset %q (cielo or prospective; set nodes for an explicit platform)", p.Name)
	}
	return plat, nil
}

// Resolve lowers the wire grid onto driver.SweepGrid, collecting every
// unresolvable name.
func (g SweepGrid) Resolve() (driver.SweepGrid, error) {
	var errs []error
	out := driver.SweepGrid{
		BandwidthsBps:   g.BandwidthsBps,
		NodeMTBFSeconds: g.NodeMTBFSeconds,
		Channels:        g.Channels,
	}
	for _, fs := range g.FailureSpecs {
		model, err := resolveFailureModel(fs.Model)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		out.FailureSpecs = append(out.FailureSpecs, driver.FailureSpec{Model: model, WeibullShape: fs.WeibullShape})
	}
	for _, name := range g.Strategies {
		strat, ok := engine.StrategyByName(name)
		if !ok {
			errs = append(errs, fmt.Errorf("api: unknown strategy %q in grid", name))
			continue
		}
		out.Strategies = append(out.Strategies, strat)
	}
	for i, k := range g.Channels {
		if k < 1 {
			errs = append(errs, fmt.Errorf("api: grid channels[%d] = %d, must be >= 1", i, k))
		}
	}
	return out, errors.Join(errs...)
}

func resolveFailureModel(name string) (failure.Model, error) {
	switch name {
	case "", "exponential":
		return failure.Exponential, nil
	case "weibull":
		return failure.Weibull, nil
	}
	return 0, fmt.Errorf("api: unknown failure model %q (exponential or weibull)", name)
}

func failureModelName(m failure.Model) (string, error) {
	switch m {
	case failure.Exponential:
		return "exponential", nil
	case failure.Weibull:
		return "weibull", nil
	}
	return "", fmt.Errorf("api: failure model %d has no wire name", int(m))
}

func (g *Gen) resolve() (workload.GenConfig, error) {
	out := workload.GenConfig{
		MinDays:  g.MinDays,
		Buffer:   g.Buffer,
		ShareTol: g.ShareTol,
		MaxJobs:  g.MaxJobs,
	}
	switch g.Law {
	case "", "uniform20":
		out.Law = workload.LawUniform20
	case "normal20":
		out.Law = workload.LawNormal20
	default:
		return out, fmt.Errorf("api: unknown duration law %q (uniform20 or normal20)", g.Law)
	}
	return out, nil
}

func (i *Interference) resolve() (iomodel.InterferenceModel, error) {
	switch i.Model {
	case "", "linear":
		return iomodel.LinearShare{}, nil
	case "unlimited":
		return iomodel.Unlimited{}, nil
	case "degraded":
		if i.Gamma <= 0 || i.Gamma > 1 {
			return nil, fmt.Errorf("api: degraded interference gamma %v outside (0,1]", i.Gamma)
		}
		return iomodel.Degraded{Gamma: i.Gamma}, nil
	}
	return nil, fmt.Errorf("api: unknown interference model %q (linear, unlimited or degraded)", i.Model)
}

func (b *BurstBuffer) resolve() (*burstbuffer.Config, error) {
	out := &burstbuffer.Config{
		PerNodeBandwidthBps: b.PerNodeBandwidthBps,
		Resilient:           b.Resilient,
		DrainToPFS:          b.DrainToPFS,
	}
	switch b.Period {
	case "", "cooperative":
		out.Period = burstbuffer.PeriodCooperative
	case "naive":
		out.Period = burstbuffer.PeriodNaive
	default:
		return nil, fmt.Errorf("api: unknown burst-buffer period model %q (cooperative or naive)", b.Period)
	}
	return out, nil
}

// MCResult is the wire image of a streamed driver.MCResult: the scalar
// aggregates and the candlestick summary. The per-run materialisations
// (WasteRatios, Results) never cross the wire — the service always runs
// the O(1)-memory streaming path, which leaves them nil. CIHalfWidth is
// +Inf below two estimator observations, which JSON cannot carry; the
// CIHalfWidthInf flag round-trips it exactly.
type MCResult struct {
	Strategy        string        `json:"strategy"`
	Summary         stats.Summary `json:"summary"`
	MeanUtilization float64       `json:"mean_utilization"`
	MeanFailures    float64       `json:"mean_failures"`
	RunsUsed        int           `json:"runs_used"`
	CIHalfWidth     float64       `json:"ci_half_width"`
	CIHalfWidthInf  bool          `json:"ci_half_width_inf,omitempty"`
	Confidence      float64       `json:"confidence"`
	Cached          bool          `json:"cached,omitempty"`
}

// FromMCResult encodes the streamable fields of a Monte-Carlo result.
func FromMCResult(mc driver.MCResult) MCResult {
	out := MCResult{
		Strategy:        mc.Strategy,
		Summary:         mc.Summary,
		MeanUtilization: mc.MeanUtilization,
		MeanFailures:    mc.MeanFailures,
		RunsUsed:        mc.RunsUsed,
		CIHalfWidth:     mc.CIHalfWidth,
		Confidence:      mc.Confidence,
		Cached:          mc.Cached,
	}
	if math.IsInf(mc.CIHalfWidth, 1) {
		out.CIHalfWidth = 0
		out.CIHalfWidthInf = true
	}
	return out
}

// Engine lowers the wire result back onto driver.MCResult.
func (m MCResult) Engine() driver.MCResult {
	out := driver.MCResult{
		Strategy:        m.Strategy,
		Summary:         m.Summary,
		MeanUtilization: m.MeanUtilization,
		MeanFailures:    m.MeanFailures,
		RunsUsed:        m.RunsUsed,
		CIHalfWidth:     m.CIHalfWidth,
		Confidence:      m.Confidence,
		Cached:          m.Cached,
	}
	if m.CIHalfWidthInf {
		out.CIHalfWidth = math.Inf(1)
	}
	return out
}

// PointResult is one grid point's outcome on the wire, in grid order —
// the payload of the campaign result stream.
type PointResult struct {
	Index           int     `json:"index"`
	BandwidthBps    float64 `json:"bandwidth_bps"`
	NodeMTBFSeconds float64 `json:"node_mtbf_seconds"`
	FailureModel    string  `json:"failure_model"`
	WeibullShape    float64 `json:"weibull_shape,omitempty"`
	Channels        int     `json:"channels"`
	Strategy        string  `json:"strategy"`
	// Status is "done" or "failed" (campaign.PointStatus).
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// Attempts counts simulation attempts; Restored marks a point
	// replayed from the campaign journal.
	Attempts int  `json:"attempts,omitempty"`
	Restored bool `json:"restored,omitempty"`
	// MC holds the aggregates when Status is "done".
	MC *MCResult `json:"mc,omitempty"`
}

// FromPointResult encodes a campaign point outcome.
func FromPointResult(pr campaign.PointResult) PointResult {
	model, _ := failureModelName(pr.Point.Failure.Model)
	out := PointResult{
		Index:           pr.Point.Index,
		BandwidthBps:    pr.Point.BandwidthBps,
		NodeMTBFSeconds: pr.Point.NodeMTBFSeconds,
		FailureModel:    model,
		WeibullShape:    pr.Point.Failure.WeibullShape,
		Channels:        pr.Point.Channels,
		Strategy:        pr.Point.Strategy.Name(),
		Status:          pr.Status.String(),
		Attempts:        pr.Attempts,
		Restored:        pr.Restored,
	}
	if pr.Err != nil {
		out.Error = pr.Err.Error()
	}
	if pr.Status == campaign.StatusDone {
		mc := FromMCResult(pr.MC)
		out.MC = &mc
	}
	return out
}

// StreamFrame is one NDJSON line of GET /v1/campaigns/{id}/results.
// Exactly one field is set: Point for each result in grid order, End as
// the final line once the campaign reaches a terminal state.
type StreamFrame struct {
	Point *PointResult `json:"point,omitempty"`
	End   *StreamEnd   `json:"end,omitempty"`
}

// StreamEnd closes a result stream: the campaign's terminal state
// ("done", "failed" or "cancelled"), its error when not done, and the
// total number of point frames the full stream carries (so a client
// resuming with ?from= can tell a complete read from a truncated one).
type StreamEnd struct {
	State  string `json:"state"`
	Error  string `json:"error,omitempty"`
	Points int    `json:"points"`
}

// Progress is a point-in-time snapshot of campaign advancement; the
// campaign layer's own type carries the wire's JSON tags.
type Progress = campaign.Progress

// CampaignInfo describes one campaign in listings and inspections.
type CampaignInfo struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	// State is "queued", "running", "done", "failed" or "cancelled".
	State       string    `json:"state"`
	SubmittedAt time.Time `json:"submitted_at"`
	Runs        int       `json:"runs"`
	Points      int       `json:"points"`
	// Results is the number of point frames available to stream now —
	// the upper bound for a ?from= offset.
	Results  int      `json:"results"`
	Progress Progress `json:"progress"`
	Error    string   `json:"error,omitempty"`
}

// SubmitResponse is the body of a successful POST /v1/campaigns.
type SubmitResponse struct {
	ID string `json:"id"`
}

// StrategyInfo is one row of GET /v1/strategies.
type StrategyInfo struct {
	Name        string `json:"name"`
	Discipline  string `json:"discipline"`
	Policy      string `json:"policy"`
	NonBlocking bool   `json:"non_blocking_checkpoints"`
	TokenDevice bool   `json:"token_device"`
}

// StrategiesResponse is the body of GET /v1/strategies: the strategy
// registry, everything a client may reference by name in a campaign
// spec.
type StrategiesResponse struct {
	Strategies []StrategyInfo `json:"strategies"`
}

// ListStrategies renders the engine registry onto the wire.
func ListStrategies() StrategiesResponse {
	var out StrategiesResponse
	for _, s := range engine.AllStrategies() {
		out.Strategies = append(out.Strategies, StrategyInfo{
			Name:        s.Name(),
			Discipline:  s.Discipline.Name(),
			Policy:      s.Policy.Label(),
			NonBlocking: s.Discipline.NonBlockingCheckpoints(),
			TokenDevice: s.Discipline.UsesToken(),
		})
	}
	return out
}

// Health is the body of GET /healthz.
type Health struct {
	Status   string `json:"status"`
	Version  string `json:"version"`
	Running  int    `json:"campaigns_running"`
	Queued   int    `json:"campaigns_queued"`
	Total    int    `json:"campaigns_total"`
	DataDir  string `json:"data_dir,omitempty"`
	UptimeMS int64  `json:"uptime_ms"`
}

// Error is the body of every non-2xx response.
type Error struct {
	Error string `json:"error"`
}

// EncodeJSON marshals v followed by a newline — the one-line framing
// both the NDJSON stream and the unary responses use.
func EncodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
