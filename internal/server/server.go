// Package server is the coopsimd management plane: it owns a bounded
// pool of campaign workers and runs every submitted sweep through the
// internal/campaign durability layer, so each HTTP campaign gets
// journal/resume, quarantine of failed points and the shared result
// cache for free. The server is the concurrency boundary — admission control
// (max concurrent campaigns plus a bounded queue), per-campaign
// journals under a data directory, resume-on-restart of interrupted
// campaigns at boot, and graceful drain on shutdown.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/driver"
)

// Options configures a Server.
type Options struct {
	// DataDir is where campaign specs and journals persist; "" runs
	// fully in memory (no durability, no resume-on-restart).
	DataDir string
	// MaxConcurrent bounds simultaneously running campaigns
	// (default 2).
	MaxConcurrent int
	// MaxQueue bounds campaigns waiting for a slot; a submission
	// beyond MaxConcurrent+MaxQueue active campaigns is rejected with
	// 429 (default 8).
	MaxQueue int
	// Workers is the per-campaign Monte-Carlo worker count (0 =
	// engine default, one per CPU).
	Workers int
	// Cache is the shared cross-campaign result cache (nil = none).
	Cache driver.ResultCache
	// Version is the build identification reported by /healthz.
	Version string
}

// Campaign lifecycle states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// run is one submitted campaign and everything needed to stream it.
type run struct {
	id          string
	name        string
	submittedAt time.Time
	res         api.Resolved
	points      int
	cancel      context.CancelFunc

	mu   sync.Mutex
	cond *sync.Cond
	// camp runs the campaign until it ends; finish then drops it, and
	// with it the session's per-worker arenas, keeping only its final
	// progress.
	camp     *campaign.Campaign
	progress campaign.Progress
	state    string
	results  []api.PointResult
	err      error
	// userCancelled marks a DELETE: the campaign's files are removed
	// so a restart does not resurrect it. A drain (server shutdown)
	// keeps them so boot resumes the campaign.
	userCancelled bool
}

// setState moves r to state and, once startRun has registered r, is the
// only writer of run.state, so it also keeps the server's queued and
// running counters (reserve counts a campaign into the queue before it
// exists). A terminal state is final. Lock order: run.mu before Server.mu.
func (s *Server) setState(r *run, state string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if terminalState(r.state) {
		return
	}
	s.mu.Lock()
	s.count(r.state, -1)
	s.count(state, +1)
	s.mu.Unlock()
	r.state = state
	if err != nil && r.err == nil {
		r.err = err
	}
	r.cond.Broadcast()
}

// count adjusts the counter of a non-terminal state by d. Callers hold
// s.mu.
func (s *Server) count(state string, d int) {
	switch state {
	case StateQueued:
		s.queued += d
	case StateRunning:
		s.running += d
	}
}

func terminalState(s string) bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Server is the coopsimd management plane.
type Server struct {
	opts  Options
	start time.Time
	slots chan struct{}

	mu     sync.Mutex
	runs   map[string]*run
	order  []string
	closed bool
	// queued and running count the campaigns in those states, so that
	// admission and health cost O(1) however many campaigns were ever
	// submitted. setState keeps them.
	queued, running int

	wg sync.WaitGroup

	// lifeCtx parents every campaign context; Shutdown cancels it.
	lifeCtx  context.Context
	lifeStop context.CancelFunc
}

// New builds a server and, when DataDir holds interrupted campaigns
// from a previous process, resubmits them for resume before returning.
func New(opts Options) (*Server, error) {
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = 2
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 8
	}
	if opts.DataDir != "" {
		if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: data dir: %w", err)
		}
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		opts:     opts,
		start:    time.Now(),
		slots:    make(chan struct{}, opts.MaxConcurrent),
		runs:     make(map[string]*run),
		lifeCtx:  ctx,
		lifeStop: stop,
	}
	if err := s.resumeAll(); err != nil {
		stop()
		return nil, err
	}
	return s, nil
}

// storedSpec is the on-disk form of a submission, written at accept
// time so a restart can resubmit the exact campaign.
type storedSpec struct {
	ID          string           `json:"id"`
	SubmittedAt time.Time        `json:"submitted_at"`
	Spec        api.CampaignSpec `json:"spec"`
}

func (s *Server) specPath(id string) string {
	return filepath.Join(s.opts.DataDir, id+".spec.json")
}

func (s *Server) journalPath(id string) string {
	if s.opts.DataDir == "" {
		return ""
	}
	return filepath.Join(s.opts.DataDir, id+".journal")
}

// resumeAll scans the data directory for persisted specs and resubmits
// each campaign with journal resume enabled: completed campaigns
// replay instantly from their sealed journals, interrupted ones pick
// up where the crash left them. It removes the temp files of spec
// writes a crash interrupted.
func (s *Server) resumeAll() error {
	if s.opts.DataDir == "" {
		return nil
	}
	ents, err := os.ReadDir(s.opts.DataDir)
	if err != nil {
		return fmt.Errorf("server: scan data dir: %w", err)
	}
	var ids []string
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if name, ok := strings.CutSuffix(e.Name(), ".spec.json"); ok {
			ids = append(ids, name)
		} else if stray, _ := filepath.Match(specTemp("*"), e.Name()); stray {
			// What a crash left of a spec write: the submission was
			// never acknowledged, so nothing resumes from it. (Match
			// fails only on a malformed pattern, and specTemp's is not.)
			if err := os.Remove(filepath.Join(s.opts.DataDir, e.Name())); err != nil {
				return fmt.Errorf("server: remove interrupted spec write: %w", err)
			}
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		st, res, err := s.readSpec(id)
		if err != nil {
			s.addFailed(id, st, fmt.Errorf("server: resume %s: %w", id, err))
			continue
		}
		if err := s.reserve(false); err != nil {
			return err
		}
		s.startRun(id, st.Spec.Name, st.SubmittedAt, res)
	}
	return nil
}

// readSpec reads, decodes and resolves campaign id's stored spec.
func (s *Server) readSpec(id string) (storedSpec, api.Resolved, error) {
	var st storedSpec
	b, err := os.ReadFile(s.specPath(id))
	if err != nil {
		return st, api.Resolved{}, err
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return st, api.Resolved{}, fmt.Errorf("corrupt spec: %w", err)
	}
	res, err := st.Spec.Resolve()
	return st, res, err
}

// addFailed registers a stored campaign that cannot resume (its spec no
// longer reads, decodes or resolves, say because it names a strategy
// that is no longer registered) in state failed with the cause, so the
// other campaigns still boot. It takes no admission slot; it shows in
// List and Info, its stream ends with the error, and Cancel removes its
// files.
func (s *Server) addFailed(id string, st storedSpec, err error) {
	r := &run{
		id:          id,
		name:        st.Spec.Name,
		submittedAt: st.SubmittedAt,
		res:         api.Resolved{Runs: st.Spec.Runs},
		cancel:      func() {},
		state:       StateFailed,
		err:         err,
	}
	s.register(r)
}

// register lists r among the server's campaigns, in submission order.
func (s *Server) register(r *run) {
	r.cond = sync.NewCond(&r.mu)
	s.mu.Lock()
	s.runs[r.id] = r
	s.order = append(s.order, r.id)
	s.mu.Unlock()
}

func newID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return "c-" + hex.EncodeToString(b[:])
}

// Submit admits one campaign: validates nothing (the caller resolves
// the spec first), persists it, and schedules it on the worker pool.
// ErrQueueFull reports admission-control rejection.
func (s *Server) Submit(spec api.CampaignSpec) (string, error) {
	res, err := spec.Resolve()
	if err != nil {
		return "", &BadSpecError{Err: err}
	}

	if err := s.reserve(true); err != nil {
		return "", err
	}
	id := newID()
	now := time.Now().UTC()
	if s.opts.DataDir != "" {
		b, err := json.MarshalIndent(storedSpec{ID: id, SubmittedAt: now, Spec: spec}, "", "  ")
		if err == nil {
			err = s.writeSpec(id, append(b, '\n'))
		}
		if err != nil {
			s.unreserve()
			return "", fmt.Errorf("server: persist spec: %w", err)
		}
	}
	s.startRun(id, spec.Name, now, res)
	return id, nil
}

// specTemp is the os.CreateTemp pattern of campaign id's spec while it
// is being written. Its names never end in ".spec.json", so resumeAll
// never resumes what a crash leaves of it, and removes it instead.
func specTemp(id string) string { return "." + id + ".spec-*.tmp" }

// writeSpec lands a spec file atomically: a synced temp file in DataDir,
// renamed into place. A crash mid-write leaves at most a stray temp
// file, never a torn spec that would stop every later boot.
func (s *Server) writeSpec(id string, b []byte) error {
	tmp, err := os.CreateTemp(s.opts.DataDir, specTemp(id))
	if err != nil {
		return err
	}
	_, err = tmp.Write(b)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.specPath(id))
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// reserve admits one campaign atomically: under s.mu it checks that the
// server is open and, when limit is set, that a queue slot is free, then
// counts the campaign as queued and adds it to the drain WaitGroup. A
// submission racing Shutdown is therefore either refused or waited for,
// and concurrent submissions can never overfill the queue. The caller
// must follow with startRun, or with unreserve if it gives up.
func (s *Server) reserve(limit bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrShuttingDown
	}
	if limit && s.queued+s.running >= s.opts.MaxConcurrent+s.opts.MaxQueue {
		return ErrQueueFull
	}
	s.queued++
	s.wg.Add(1)
	return nil
}

// unreserve rolls back a reservation whose campaign never started.
func (s *Server) unreserve() {
	s.mu.Lock()
	s.queued--
	s.mu.Unlock()
	s.wg.Done()
}

// Admission and validation sentinels the HTTP layer maps onto status
// codes.
var (
	ErrQueueFull    = errors.New("server: campaign queue full")
	ErrShuttingDown = errors.New("server: shutting down")
	ErrNotFound     = errors.New("server: no such campaign")
)

// BadSpecError wraps spec resolution failures (HTTP 400 — the joined
// message lists every field error).
type BadSpecError struct{ Err error }

func (e *BadSpecError) Error() string { return e.Err.Error() }
func (e *BadSpecError) Unwrap() error { return e.Err }

// startRun registers the campaign and launches its worker goroutine.
// The caller has already reserved its queue slot and persisted the spec.
func (s *Server) startRun(id, name string, submittedAt time.Time, res api.Resolved) {
	ctx, cancel := context.WithCancel(s.lifeCtx)
	camp := campaign.New(campaign.Options{
		JournalPath: s.journalPath(id),
		Resume:      true,
		Workers:     s.opts.Workers,
		Antithetic:  res.Antithetic,
		TargetCI:    res.TargetCI,
		Cache:       s.opts.Cache,
	})
	r := &run{
		id:          id,
		name:        name,
		submittedAt: submittedAt,
		res:         res,
		points:      len(res.Grid.Points(res.Base)),
		camp:        camp,
		cancel:      cancel,
		// reserve already counted the campaign as queued.
		state: StateQueued,
	}
	s.register(r)

	go func() {
		defer s.wg.Done()
		defer cancel()
		s.execute(ctx, r)
	}()
}

// execute waits for a pool slot and drives the campaign to a terminal
// state, appending each point result to the stream buffer.
func (s *Server) execute(ctx context.Context, r *run) {
	select {
	case s.slots <- struct{}{}:
		defer func() { <-s.slots }()
	case <-ctx.Done():
		s.finish(r, ctx.Err())
		return
	}
	s.setState(r, StateRunning, nil)

	seq, errf := r.camp.RunSweep(ctx, r.res.Base, r.res.Grid, r.res.Runs)
	for pr := range seq {
		frame := api.FromPointResult(pr)
		r.mu.Lock()
		r.results = append(r.results, frame)
		r.cond.Broadcast()
		r.mu.Unlock()
	}
	s.finish(r, errf())
}

// finish moves the run to its terminal state and, on user
// cancellation, removes its persisted files.
func (s *Server) finish(r *run, err error) {
	r.mu.Lock()
	cancelled := r.userCancelled
	r.progress, r.camp = r.camp.Snapshot(), nil
	r.mu.Unlock()
	switch {
	case err == nil:
		s.setState(r, StateDone, nil)
	case errors.Is(err, context.Canceled):
		s.setState(r, StateCancelled, errors.New("campaign cancelled"))
	default:
		s.setState(r, StateFailed, err)
	}
	if cancelled && s.opts.DataDir != "" {
		os.Remove(s.specPath(r.id))
		os.Remove(s.journalPath(r.id))
	}
}

// Cancel stops a campaign and forgets its persisted state so a restart
// does not resurrect it. Cancelling a terminal campaign only removes
// the files.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	r, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	r.mu.Lock()
	r.userCancelled = true
	terminal := terminalState(r.state)
	r.mu.Unlock()
	r.cancel()
	if terminal && s.opts.DataDir != "" {
		os.Remove(s.specPath(id))
		os.Remove(s.journalPath(id))
	}
	return nil
}

// info snapshots one run for listings.
func (s *Server) info(r *run) api.CampaignInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	info := api.CampaignInfo{
		ID:          r.id,
		Name:        r.name,
		State:       r.state,
		SubmittedAt: r.submittedAt,
		Runs:        r.res.Runs,
		Points:      r.points,
		Results:     len(r.results),
		Progress:    r.progress,
	}
	if r.camp != nil {
		info.Progress = r.camp.Snapshot()
	}
	if info.Progress.PointsTotal == 0 {
		info.Progress.PointsTotal = r.points
	}
	if r.err != nil {
		info.Error = r.err.Error()
	}
	return info
}

// Info inspects one campaign.
func (s *Server) Info(id string) (api.CampaignInfo, error) {
	s.mu.Lock()
	r, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		return api.CampaignInfo{}, ErrNotFound
	}
	return s.info(r), nil
}

// List returns every campaign in submission order.
func (s *Server) List() []api.CampaignInfo {
	s.mu.Lock()
	runs := make([]*run, 0, len(s.order))
	for _, id := range s.order {
		runs = append(runs, s.runs[id])
	}
	s.mu.Unlock()
	out := make([]api.CampaignInfo, 0, len(runs))
	for _, r := range runs {
		out = append(out, s.info(r))
	}
	return out
}

// Stream yields the campaign's point frames starting at offset from,
// blocking for new frames until the campaign reaches a terminal state,
// then reports that state. It returns when the stream is complete or
// ctx is cancelled; yield returning false stops early (client went
// away).
func (s *Server) Stream(ctx context.Context, id string, from int, yield func(api.StreamFrame) bool) error {
	s.mu.Lock()
	r, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	if from < 0 {
		from = 0
	}
	// Wake the cond wait when the client disconnects.
	stop := context.AfterFunc(ctx, func() {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	})
	defer stop()

	i := from
	for {
		r.mu.Lock()
		for i >= len(r.results) && !terminalState(r.state) && ctx.Err() == nil {
			r.cond.Wait()
		}
		var frame api.StreamFrame
		switch {
		case ctx.Err() != nil:
			r.mu.Unlock()
			return ctx.Err()
		case i < len(r.results):
			frame.Point = &r.results[i]
			i++
		default:
			end := api.StreamEnd{State: r.state, Points: len(r.results)}
			if r.err != nil {
				end.Error = r.err.Error()
			}
			frame.End = &end
		}
		r.mu.Unlock()
		if !yield(frame) {
			return nil
		}
		if frame.End != nil {
			return nil
		}
	}
}

// Health snapshots the server for /healthz.
func (s *Server) Health() api.Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := api.Health{
		Status:   "ok",
		Version:  s.opts.Version,
		Total:    len(s.runs),
		Queued:   s.queued,
		Running:  s.running,
		DataDir:  s.opts.DataDir,
		UptimeMS: time.Since(s.start).Milliseconds(),
	}
	if s.closed {
		h.Status = "draining"
	}
	return h
}

// Shutdown drains the server: new submissions are refused, every
// campaign's context is cancelled (journals stay on disk, so a
// restart resumes them), and it waits — up to ctx — for the worker
// goroutines to seal their journals and flush their streams.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.lifeStop()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	}
}
