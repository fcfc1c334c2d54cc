package driver

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faultinject"
)

// TestWorkerPanicRecovered pins the panic-isolation contract: a panic in
// a worker's replicate (here injected, in production a user-registered
// strategy or arbiter) no longer takes down the process — it surfaces as
// a *PanicError on the experiment, the remaining workers drain, and the
// goroutine count settles back to the pre-experiment level.
func TestWorkerPanicRecovered(t *testing.T) {
	before := runtime.NumGoroutine()
	restore := faultinject.Set(faultinject.SiteWorkerReplicate,
		faultinject.PanicOn("injected worker panic", func(detail any) bool {
			return detail.(faultinject.WorkerReplicate).Run == 7
		}))
	defer restore()

	s := NewSession(WithWorkers(4))
	_, err := s.MonteCarlo(context.Background(), tinyConfig(engine.OrderedNBDaly(), 3), 64)
	if err == nil {
		t.Fatal("experiment with a panicking replicate reported success")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v (%T) is not a *PanicError", err, err)
	}
	if pe.Run != 7 {
		t.Fatalf("PanicError.Run = %d, want 7", pe.Run)
	}
	if pe.Value != "injected worker panic" {
		t.Fatalf("PanicError.Value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError carries no stack")
	}
	checkNoGoroutineLeak(t, before)

	// The session survives the poisoned experiment: the panicking arena
	// slot was dropped, and the next experiment on the same session
	// rebuilds it and produces the exact un-poisoned result.
	restore()
	want, err := NewSession(WithWorkers(4)).MonteCarlo(context.Background(), tinyConfig(engine.OrderedNBDaly(), 3), 16)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.MonteCarlo(context.Background(), tinyConfig(engine.OrderedNBDaly(), 3), 16)
	if err != nil {
		t.Fatalf("session did not survive a recovered panic: %v", err)
	}
	if got.Summary != want.Summary {
		t.Fatalf("post-panic session summary %+v != fresh %+v", got.Summary, want.Summary)
	}
	checkNoGoroutineLeak(t, before)
}

// TestWorkerHangHonoursDeadline: a worker stalled in cancellable user
// code (the faultinject hang blocks on ctx) is cut short by a per-point
// deadline instead of wedging the experiment forever.
func TestWorkerHangHonoursDeadline(t *testing.T) {
	before := runtime.NumGoroutine()
	restore := faultinject.Set(faultinject.SiteWorkerReplicate,
		faultinject.HangUntilCancel())
	defer restore()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := NewSession(WithWorkers(2)).MonteCarlo(ctx, tinyConfig(engine.OrderedNBDaly(), 3), 100)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung experiment returned %v, want context.DeadlineExceeded", err)
	}
	checkNoGoroutineLeak(t, before)
}

// sweepOne runs gp as a one-point SweepPoints grid — the path a
// campaign's snapshotted or resumed point takes — and returns its result
// or its failure.
func sweepOne(ctx context.Context, s *Session, gp GridPoint, runs int) (MCResult, error) {
	var mc MCResult
	var perr error
	err := s.SweepPoints(ctx, []GridPoint{gp}, runs, func(_ int, r MCResult, e error) bool {
		mc, perr = r, e
		return true
	})
	if err == nil {
		err = perr
	}
	return mc, err
}

// TestMonteCarloResumeBitIdentity pins the resume contract at every cut
// point: run the experiment uninterrupted; then, for each replicate
// boundary k, replay the snapshot taken at k (through a JSON round trip,
// as the campaign journal stores it) into a fresh session and run the
// remaining replicates. Every aggregate of the resumed result must equal
// the uninterrupted one bit for bit.
func TestMonteCarloResumeBitIdentity(t *testing.T) {
	ctx := context.Background()
	cfg := tinyConfig(engine.LeastWaste(), 5)
	const runs = 24

	var snaps []MCSnapshot
	full, err := sweepOne(ctx, NewSession(WithWorkers(3)), GridPoint{
		Config:     cfg,
		OnSnapshot: func(s MCSnapshot) { snaps = append(snaps, s) },
	}, runs)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != runs {
		t.Fatalf("got %d snapshots, want one per replicate (%d)", len(snaps), runs)
	}
	for _, snap := range snaps {
		blob, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		var restored MCSnapshot
		if err := json.Unmarshal(blob, &restored); err != nil {
			t.Fatal(err)
		}
		got, err := sweepOne(ctx, NewSession(WithWorkers(2)), GridPoint{Config: cfg, Resume: &restored}, runs)
		if err != nil {
			t.Fatalf("resume at %d: %v", snap.Folded, err)
		}
		if got.Summary != full.Summary ||
			got.MeanUtilization != full.MeanUtilization ||
			got.MeanFailures != full.MeanFailures ||
			got.RunsUsed != full.RunsUsed ||
			got.CIHalfWidth != full.CIHalfWidth {
			t.Fatalf("resume at %d diverges:\n got %+v (util %v fails %v ci %v)\nwant %+v (util %v fails %v ci %v)",
				snap.Folded, got.Summary, got.MeanUtilization, got.MeanFailures, got.CIHalfWidth,
				full.Summary, full.MeanUtilization, full.MeanFailures, full.CIHalfWidth)
		}
	}
}

// TestMonteCarloResumeAntithetic: resume across antithetic pair
// boundaries — including mid-pair, where the snapshot carries the even
// member awaiting its twin — stays bit-identical.
func TestMonteCarloResumeAntithetic(t *testing.T) {
	ctx := context.Background()
	cfg := tinyConfig(engine.OrderedNBDaly(), 9)
	const runs = 16

	var snaps []MCSnapshot
	s := NewSession(WithWorkers(2), WithAntithetic(true))
	full, err := sweepOne(ctx, s, GridPoint{
		Config:     cfg,
		OnSnapshot: func(s MCSnapshot) { snaps = append(snaps, s) },
	}, runs)
	if err != nil {
		t.Fatal(err)
	}
	for _, snap := range snaps {
		snap := snap
		got, err := sweepOne(ctx, NewSession(WithWorkers(3), WithAntithetic(true)),
			GridPoint{Config: cfg, Resume: &snap}, runs)
		if err != nil {
			t.Fatalf("resume at %d: %v", snap.Folded, err)
		}
		if got.Summary != full.Summary || got.CIHalfWidth != full.CIHalfWidth {
			t.Fatalf("antithetic resume at %d diverges", snap.Folded)
		}
	}
}

// TestMonteCarloResumeSequentialStopping: a sequentially stopped
// experiment resumed from a snapshot stops at the same replicate with
// the same interval as the uninterrupted run.
func TestMonteCarloResumeSequentialStopping(t *testing.T) {
	ctx := context.Background()
	cfg := tinyConfig(engine.OrderedNBDaly(), 2)
	const maxRuns = 200

	probe, err := NewSession(WithWorkers(2)).MonteCarlo(ctx, cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	// A target a bit looser than the 16-run interval stops between
	// minRuns and maxRuns.
	target := probe.CIHalfWidth * 1.2
	mk := func() *Session {
		return NewSession(WithWorkers(2), WithTargetCI(target, 0.95, 8, maxRuns))
	}
	var snaps []MCSnapshot
	full, err := sweepOne(ctx, mk(), GridPoint{
		Config:     cfg,
		OnSnapshot: func(s MCSnapshot) { snaps = append(snaps, s) },
	}, maxRuns)
	if err != nil {
		t.Fatal(err)
	}
	if full.RunsUsed >= maxRuns || full.RunsUsed < 8 {
		t.Fatalf("stopping did not engage (RunsUsed %d)", full.RunsUsed)
	}
	cut := full.RunsUsed / 2
	snap := snaps[cut-1]
	got, err := sweepOne(ctx, mk(), GridPoint{Config: cfg, Resume: &snap}, maxRuns)
	if err != nil {
		t.Fatal(err)
	}
	if got.RunsUsed != full.RunsUsed || got.Summary != full.Summary || got.CIHalfWidth != full.CIHalfWidth {
		t.Fatalf("resumed sequential stop: runs %d ci %v, want runs %d ci %v",
			got.RunsUsed, got.CIHalfWidth, full.RunsUsed, full.CIHalfWidth)
	}
}

// TestResumeRequiresStreamingPath: snapshots and resume are defined only
// on the O(1)-memory path.
func TestResumeRequiresStreamingPath(t *testing.T) {
	ctx := context.Background()
	cfg := tinyConfig(engine.OrderedNBDaly(), 1)
	snap := &MCSnapshot{}
	_, err := sweepOne(ctx, NewSession(WithKeepWasteRatios(true)), GridPoint{Config: cfg, Resume: snap}, 4)
	if err == nil || !strings.Contains(err.Error(), "streaming path") {
		t.Fatalf("materialising resume accepted (err %v)", err)
	}
	_, err = sweepOne(ctx, NewSession(WithKeepResults(true)), GridPoint{
		Config:     cfg,
		OnSnapshot: func(MCSnapshot) {},
	}, 4)
	if err == nil || !strings.Contains(err.Error(), "streaming path") {
		t.Fatalf("materialising snapshots accepted (err %v)", err)
	}
	_, err = sweepOne(ctx, NewSession(), GridPoint{Config: cfg, Resume: &MCSnapshot{Folded: 9}}, 4)
	if err == nil || !strings.Contains(err.Error(), "folds") {
		t.Fatalf("overlong snapshot accepted (err %v)", err)
	}
}

// TestMonteCarloResumeComplete: a snapshot that already folds every
// replicate yields the finished result without dispatching any work.
func TestMonteCarloResumeComplete(t *testing.T) {
	ctx := context.Background()
	cfg := tinyConfig(engine.OrderedNBDaly(), 4)
	const runs = 8
	var last MCSnapshot
	full, err := sweepOne(ctx, NewSession(WithWorkers(2)), GridPoint{
		Config:     cfg,
		OnSnapshot: func(s MCSnapshot) { last = s },
	}, runs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sweepOne(ctx, NewSession(WithWorkers(2)), GridPoint{Config: cfg, Resume: &last}, runs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Summary != full.Summary || got.RunsUsed != runs {
		t.Fatalf("complete-snapshot resume diverges: %+v vs %+v", got.Summary, full.Summary)
	}
}
