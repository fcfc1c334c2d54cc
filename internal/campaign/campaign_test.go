package campaign

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/iomodel"
	"repro/internal/platform"
	"repro/internal/units"
	"repro/internal/workload"
)

func tinyConfig(strat engine.Strategy, seed uint64) engine.Config {
	return engine.Config{
		Platform: platform.Platform{
			Name:            "tiny",
			Nodes:           256,
			MemoryBytes:     4 * units.TB,
			BandwidthBps:    units.GBps(0.5),
			NodeMTBFSeconds: units.Years(1),
		},
		Classes: []workload.Class{
			{
				Name: "big", Share: 0.7, WorkHours: 30, MachineFraction: 0.25,
				InputPctMem: 10, OutputPctMem: 100, CkptPctMem: 150,
			},
			{
				Name: "small", Share: 0.3, WorkHours: 10, MachineFraction: 0.0625,
				InputPctMem: 5, OutputPctMem: 200, CkptPctMem: 100,
			},
		},
		Strategy:     strat,
		Seed:         seed,
		HorizonDays:  6,
		WarmupDays:   0.5,
		CooldownDays: 0.5,
		Gen:          workload.GenConfig{MinDays: 6, Buffer: 1.2, ShareTol: 0.05},
	}
}

func mustStrategy(t *testing.T, name string) engine.Strategy {
	t.Helper()
	s, ok := engine.StrategyByName(name)
	if !ok {
		t.Fatalf("strategy %q not registered", name)
	}
	return s
}

// golden runs the grid uninterrupted through a plain unjournaled
// campaign — the reference every recovery test compares against bit for
// bit.
func golden(t *testing.T, base engine.Config, grid driver.SweepGrid, runs int) []PointResult {
	t.Helper()
	seq, errf := New(Options{Workers: 3}).RunSweep(context.Background(), base, grid, runs)
	var out []PointResult
	for pr := range seq {
		if pr.Status != StatusDone {
			t.Fatalf("golden point %d: %v", pr.Point.Index, pr.Err)
		}
		out = append(out, pr)
	}
	if err := errf(); err != nil {
		t.Fatalf("golden campaign: %v", err)
	}
	return out
}

// sameMC asserts bit-identity of the aggregates campaign results carry.
func sameMC(t *testing.T, tag string, got, want driver.MCResult) {
	t.Helper()
	if got.Summary != want.Summary ||
		got.MeanUtilization != want.MeanUtilization ||
		got.MeanFailures != want.MeanFailures ||
		got.RunsUsed != want.RunsUsed ||
		got.CIHalfWidth != want.CIHalfWidth ||
		got.Strategy != want.Strategy {
		t.Fatalf("%s diverges:\n got %+v util %v fails %v runs %d ci %v\nwant %+v util %v fails %v runs %d ci %v",
			tag,
			got.Summary, got.MeanUtilization, got.MeanFailures, got.RunsUsed, got.CIHalfWidth,
			want.Summary, want.MeanUtilization, want.MeanFailures, want.RunsUsed, want.CIHalfWidth)
	}
}

// TestCampaignJournalRoundTrip: a journaled campaign seals its journal,
// and replaying it restores every point's aggregates exactly.
func TestCampaignJournalRoundTrip(t *testing.T) {
	base := tinyConfig(mustStrategy(t, "Ordered-NB-Daly"), 11)
	grid := driver.SweepGrid{BandwidthsBps: []float64{units.GBps(0.25), units.GBps(0.5)}}
	const runs = 6
	want := golden(t, base, grid, runs)

	path := filepath.Join(t.TempDir(), "campaign.journal")
	seq, errf := New(Options{JournalPath: path, Workers: 2}).
		RunSweep(context.Background(), base, grid, runs)
	var got []PointResult
	for pr := range seq {
		got = append(got, pr)
	}
	if err := errf(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		sameMC(t, "journaled run", got[i].MC, want[i].MC)
	}

	st, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Sealed {
		t.Fatal("completed campaign left its journal unsealed")
	}
	if len(st.Points) != len(want) {
		t.Fatalf("journal has %d points, want %d", len(st.Points), len(want))
	}
	for i, w := range want {
		p := st.Points[i]
		if p == nil || p.Done == nil {
			t.Fatalf("journal point %d not completed", i)
		}
		sameMC(t, "journal replay", *p.Done, w.MC)
	}

	// Resuming a sealed journal replays everything without simulating:
	// any replicate reaching the engine would trip this hook.
	restore := faultinject.Set(faultinject.SiteWorkerReplicate,
		faultinject.PanicOn("sealed resume simulated", func(any) bool { return true }))
	defer restore()
	seq, errf = New(Options{JournalPath: path, Resume: true, Workers: 2}).
		RunSweep(context.Background(), base, grid, runs)
	var resumed []PointResult
	for pr := range seq {
		if !pr.Restored {
			t.Fatalf("sealed resume simulated point %d", pr.Point.Index)
		}
		resumed = append(resumed, pr)
	}
	if err := errf(); err != nil {
		t.Fatal(err)
	}
	for i := range resumed {
		sameMC(t, "sealed resume", resumed[i].MC, want[i].MC)
	}
}

// TestCampaignResumeMidPointBitIdentity interrupts a journaled campaign
// mid-point (context cancellation from the progress callback — the
// cooperative half of crash recovery; the SIGKILL test covers the
// uncooperative half) and checks the resumed campaign is bit-identical
// to the uninterrupted golden at every point.
func TestCampaignResumeMidPointBitIdentity(t *testing.T) {
	base := tinyConfig(mustStrategy(t, "Least-Waste"), 23)
	grid := driver.SweepGrid{
		Strategies: []engine.Strategy{
			mustStrategy(t, "Ordered-Daly"),
			mustStrategy(t, "Ordered-NB-Daly"),
			mustStrategy(t, "Least-Waste"),
		},
	}
	const runs = 8
	want := golden(t, base, grid, runs)

	// Cancel mid-second-point: point 0 is sealed in the journal, point 1
	// has a partial snapshot trail.
	for _, cutAt := range []int{3, runs + 2, runs + 7} {
		path := filepath.Join(t.TempDir(), "campaign.journal")
		ctx, cancel := context.WithCancel(context.Background())
		var seen atomic.Int64
		c := New(Options{
			JournalPath: path, Workers: 2, SyncEvery: 1,
			Progress: func(done, total int) {
				if seen.Add(1) == int64(cutAt) {
					cancel()
				}
			},
		})
		seq, errf := c.RunSweep(ctx, base, grid, runs)
		for range seq {
		}
		if err := errf(); !errors.Is(err, context.Canceled) {
			t.Fatalf("cut at %d: interrupted campaign returned %v, want context.Canceled", cutAt, err)
		}
		cancel()

		seq, errf = New(Options{JournalPath: path, Resume: true, Workers: 3}).
			RunSweep(context.Background(), base, grid, runs)
		var got []PointResult
		for pr := range seq {
			got = append(got, pr)
		}
		if err := errf(); err != nil {
			t.Fatalf("cut at %d: resume: %v", cutAt, err)
		}
		if len(got) != len(want) {
			t.Fatalf("cut at %d: resumed %d points, want %d", cutAt, len(got), len(want))
		}
		for i := range got {
			if got[i].Status != StatusDone {
				t.Fatalf("cut at %d: resumed point %d status %v: %v", cutAt, i, got[i].Status, got[i].Err)
			}
			sameMC(t, "resumed point", got[i].MC, want[i].MC)
		}
	}
}

// TestCampaignTornTailRecovery: a short write tears the journal tail
// mid-record (the on-disk state of a crash during a write); the campaign
// reports the durability loss, and reopening truncates the torn frame
// and resumes bit-identically.
func TestCampaignTornTailRecovery(t *testing.T) {
	base := tinyConfig(mustStrategy(t, "Ordered-NB-Daly"), 31)
	grid := driver.SweepGrid{NodeMTBFSeconds: []float64{units.Years(1), units.Years(2)}}
	const runs = 6
	want := golden(t, base, grid, runs)

	path := filepath.Join(t.TempDir(), "campaign.journal")
	// Let the header and a handful of records through, then tear one.
	// SnapshotEvery 1 keeps the record volume high enough that the torn
	// write lands mid-point.
	restore := faultinject.Set(faultinject.SiteJournalWrite, faultinject.ShortWriteOnce(5, 7))
	seq, errf := New(Options{JournalPath: path, Workers: 2, SyncEvery: 1, SnapshotEvery: 1}).
		RunSweep(context.Background(), base, grid, runs)
	for range seq {
	}
	err := errf()
	restore()
	var sw faultinject.ShortWrite
	if err == nil || !errors.As(err, &sw) {
		t.Fatalf("torn campaign returned %v, want a ShortWrite durability error", err)
	}

	st, err := ReadJournal(path)
	if err != nil {
		t.Fatalf("torn journal unreadable: %v", err)
	}
	if st.TornRecords == 0 {
		t.Fatal("replay did not detect the torn tail record")
	}

	seq, errf = New(Options{JournalPath: path, Resume: true, Workers: 2}).
		RunSweep(context.Background(), base, grid, runs)
	var got []PointResult
	for pr := range seq {
		got = append(got, pr)
	}
	if err := errf(); err != nil {
		t.Fatalf("resume after tear: %v", err)
	}
	for i := range got {
		sameMC(t, "post-tear resume", got[i].MC, want[i].MC)
	}
}

// TestCampaignQuarantinesPoisonedPoint: a worker panic poisons exactly
// one grid point; that point is quarantined as a *PointError after its
// single attempt while every other point completes bit-identically.
func TestCampaignQuarantinesPoisonedPoint(t *testing.T) {
	base := tinyConfig(mustStrategy(t, "Ordered-NB-Daly"), 41)
	grid := driver.SweepGrid{
		BandwidthsBps: []float64{units.GBps(0.25), units.GBps(0.5), units.GBps(1)},
	}
	const runs = 6
	want := golden(t, base, grid, runs)

	restore := faultinject.Set(faultinject.SiteWorkerReplicate,
		faultinject.PanicOn("poisoned point", func(detail any) bool {
			return detail == faultinject.WorkerReplicate{Point: 1, Run: 0}
		}))
	defer restore()

	seq, errf := New(Options{Workers: 2}).RunSweep(context.Background(), base, grid, runs)
	var got []PointResult
	for pr := range seq {
		got = append(got, pr)
	}
	if err := errf(); err != nil {
		t.Fatalf("campaign with one poisoned point aborted: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d points, want 3", len(got))
	}

	sameMC(t, "pre-poison point", got[0].MC, want[0].MC)
	sameMC(t, "post-poison point", got[2].MC, want[2].MC)

	if got[1].Status != StatusFailed {
		t.Fatalf("poisoned point status %v, want failed", got[1].Status)
	}
	var perr *PointError
	if !errors.As(got[1].Err, &perr) {
		t.Fatalf("poisoned point error %T, want *PointError", got[1].Err)
	}
	if perr.Attempts != 1 {
		t.Fatalf("poisoned point burned %d attempts, want 1", perr.Attempts)
	}
	var panicErr *driver.PanicError
	if !errors.As(perr, &panicErr) {
		t.Fatalf("PointError %v does not unwrap to the worker *PanicError", perr)
	}
}

// TestCampaignPoisonedPointAcrossWorkers: with the whole grid on one
// coordinator run, points run concurrently and a worker moves between
// them; a panic poisoning one point mid-replication still quarantines
// only that point, at one worker and at three, and the resume heals it
// from its journal so every point matches the golden.
func TestCampaignPoisonedPointAcrossWorkers(t *testing.T) {
	base := tinyConfig(mustStrategy(t, "Least-Waste"), 47)
	grid := driver.SweepGrid{
		BandwidthsBps: []float64{units.GBps(0.25), units.GBps(0.5)},
		Strategies: []engine.Strategy{
			mustStrategy(t, "Ordered-NB-Daly"), mustStrategy(t, "Least-Waste"),
		},
	}
	const runs, poisoned = 6, 2
	want := golden(t, base, grid, runs)

	for _, workers := range []int{1, 3} {
		path := filepath.Join(t.TempDir(), "campaign.journal")
		restore := faultinject.Set(faultinject.SiteWorkerReplicate,
			faultinject.PanicOn("poisoned point", func(detail any) bool {
				return detail == faultinject.WorkerReplicate{Point: poisoned, Run: 3}
			}))
		seq, errf := New(Options{JournalPath: path, Workers: workers, SnapshotEvery: 1}).
			RunSweep(context.Background(), base, grid, runs)
		var got []PointResult
		for pr := range seq {
			got = append(got, pr)
		}
		restore()
		if err := errf(); err != nil {
			t.Fatalf("workers=%d: campaign aborted: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: got %d points, want %d", workers, len(got), len(want))
		}
		for i, pr := range got {
			if i == poisoned {
				var panicErr *driver.PanicError
				if pr.Status != StatusFailed || !errors.As(pr.Err, &panicErr) {
					t.Fatalf("workers=%d: poisoned point status %v err %v, want a quarantined panic", workers, pr.Status, pr.Err)
				}
				continue
			}
			if pr.Status != StatusDone {
				t.Fatalf("workers=%d: point %d status %v: %v", workers, i, pr.Status, pr.Err)
			}
			sameMC(t, "clean point", pr.MC, want[i].MC)
		}

		seq, errf = New(Options{JournalPath: path, Resume: true, Workers: workers}).
			RunSweep(context.Background(), base, grid, runs)
		got = got[:0]
		for pr := range seq {
			got = append(got, pr)
		}
		if err := errf(); err != nil {
			t.Fatalf("workers=%d: resume: %v", workers, err)
		}
		for i, pr := range got {
			if pr.Status != StatusDone {
				t.Fatalf("workers=%d: resumed point %d status %v: %v", workers, i, pr.Status, pr.Err)
			}
			if restored := i != poisoned; pr.Restored != restored {
				t.Fatalf("workers=%d: resumed point %d Restored=%v, want %v", workers, i, pr.Restored, restored)
			}
			sameMC(t, "resumed point", pr.MC, want[i].MC)
		}
	}
}

// TestCampaignDedupsRepeatedCell: a shared-device strategy repeats its
// result at every channel count, so without any result cache the
// campaign simulates the k=2 cell zero times and returns it Cached, as
// Session.Sweep does; the journal records it as a cache hit, and a
// resume replays it without a cache or a simulation.
func TestCampaignDedupsRepeatedCell(t *testing.T) {
	base := tinyConfig(mustStrategy(t, "Oblivious-Daly"), 59)
	grid := driver.SweepGrid{
		Channels:   []int{1, 2},
		Strategies: []engine.Strategy{mustStrategy(t, "Oblivious-Daly")},
	}
	const runs = 4
	var perPoint [2]atomic.Int64
	restore := faultinject.Set(faultinject.SiteWorkerReplicate, func(_ context.Context, detail any) error {
		perPoint[detail.(faultinject.WorkerReplicate).Point].Add(1)
		return nil
	})
	path := filepath.Join(t.TempDir(), "campaign.journal")
	c := New(Options{JournalPath: path, Workers: 2})
	seq, errf := c.RunSweep(context.Background(), base, grid, runs)
	var got []PointResult
	for pr := range seq {
		got = append(got, pr)
	}
	restore()
	if err := errf(); err != nil {
		t.Fatal(err)
	}
	if n0, n1 := perPoint[0].Load(), perPoint[1].Load(); n0 != runs || n1 != 0 {
		t.Fatalf("simulated %d and %d replicates of the two cells, want %d and 0", n0, n1, runs)
	}
	if len(got) != 2 || got[0].MC.Cached || !got[1].MC.Cached || got[1].Status != StatusDone {
		t.Fatalf("cells came back %+v, want the k=2 cell Cached", got)
	}
	if got[1].Attempts != 0 {
		t.Fatalf("repeated cell reports %d attempt(s), want 0", got[1].Attempts)
	}
	sameMC(t, "repeated cell", got[1].MC, got[0].MC)
	if p := c.Snapshot(); p.CacheHits != 1 || p.ReplicatesFolded != 2*runs {
		t.Fatalf("progress %+v, want 1 cache hit and %d replicates", p, 2*runs)
	}
	st, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 1 || !st.Sealed {
		t.Fatalf("journal records %d cache hits (sealed %v), want 1", st.CacheHits, st.Sealed)
	}

	defer faultinject.Set(faultinject.SiteWorkerReplicate,
		faultinject.PanicOn("resume simulated", func(any) bool { return true }))()
	seq, errf = New(Options{JournalPath: path, Resume: true, Workers: 2}).
		RunSweep(context.Background(), base, grid, runs)
	i := 0
	for pr := range seq {
		if !pr.Restored || pr.MC.Cached != (i == 1) {
			t.Fatalf("resumed cell %d: restored %v cached %v", i, pr.Restored, pr.MC.Cached)
		}
		sameMC(t, "resumed cell", pr.MC, got[i].MC)
		i++
	}
	if err := errf(); err != nil {
		t.Fatal(err)
	}
}

// TestCampaignFailAndHeal: a strategy failing every point quarantines
// every point after one attempt each; resuming the journal after the
// fault is fixed heals everything bit-identically.
func TestCampaignFailAndHeal(t *testing.T) {
	base := tinyConfig(mustStrategy(t, "Ordered-NB-Daly"), 53)
	grid := driver.SweepGrid{
		BandwidthsBps: []float64{units.GBps(0.25), units.GBps(0.5), units.GBps(1), units.GBps(2)},
	}
	const runs = 4
	want := golden(t, base, grid, runs)

	restore := faultinject.Set(faultinject.SiteWorkerReplicate,
		faultinject.PanicOn("strategy poisoned", nil))
	path := filepath.Join(t.TempDir(), "campaign.journal")
	seq, errf := New(Options{JournalPath: path, Workers: 2}).
		RunSweep(context.Background(), base, grid, runs)
	var got []PointResult
	for pr := range seq {
		got = append(got, pr)
	}
	if err := errf(); err != nil {
		t.Fatal(err)
	}
	restore()
	if len(got) != len(want) {
		t.Fatalf("got %d points, want %d", len(got), len(want))
	}
	for i, pr := range got {
		if pr.Status != StatusFailed || pr.Attempts != 1 {
			t.Fatalf("point %d status %v after %d attempt(s), want failed after 1", i, pr.Status, pr.Attempts)
		}
	}

	seq, errf = New(Options{JournalPath: path, Resume: true, Workers: 2}).
		RunSweep(context.Background(), base, grid, runs)
	got = got[:0]
	for pr := range seq {
		got = append(got, pr)
	}
	if err := errf(); err != nil {
		t.Fatalf("healing resume: %v", err)
	}
	for i := range got {
		if got[i].Status != StatusDone || got[i].Attempts != 2 {
			t.Fatalf("healed point %d status %v after %d attempt(s): %v", i, got[i].Status, got[i].Attempts, got[i].Err)
		}
		sameMC(t, "healed point", got[i].MC, want[i].MC)
	}
}

// TestCampaignPointTimeout: a hung worker (blocked in cancellable user
// code) is cut off by the per-point deadline and quarantined; the
// campaign itself stays alive.
func TestCampaignPointTimeout(t *testing.T) {
	base := tinyConfig(mustStrategy(t, "Ordered-NB-Daly"), 61)
	grid := driver.SweepGrid{BandwidthsBps: []float64{units.GBps(0.5), units.GBps(1)}}

	restore := faultinject.Set(faultinject.SiteWorkerReplicate, faultinject.HangUntilCancel())
	defer restore()

	seq, errf := New(Options{
		Workers:      2,
		PointTimeout: 50 * time.Millisecond,
	}).RunSweep(context.Background(), base, grid, 8)
	var got []PointResult
	for pr := range seq {
		got = append(got, pr)
	}
	if err := errf(); err != nil {
		t.Fatalf("hung points aborted the campaign: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d points, want 2", len(got))
	}
	for i, pr := range got {
		if pr.Status != StatusFailed {
			t.Fatalf("hung point %d status %v, want failed", i, pr.Status)
		}
		if !errors.Is(pr.Err, context.DeadlineExceeded) {
			t.Fatalf("hung point %d error %v, want context.DeadlineExceeded", i, pr.Err)
		}
	}
}

// TestCampaignFailedPointResumesFromSnapshot: a journaled point that
// fails past its first snapshot boundary is quarantined after one
// attempt; the resume re-attempts it from that snapshot — simulating
// fewer than runs replicates — and lands bit-identical to a never-failing
// run.
func TestCampaignFailedPointResumesFromSnapshot(t *testing.T) {
	base := tinyConfig(mustStrategy(t, "Least-Waste"), 71)
	const runs, every, failAt = 8, 2, 5
	want := golden(t, base, driver.SweepGrid{}, runs)

	// Workers 1 folds replicates 0..failAt-1 before replicate failAt's
	// error returns, so snapshots up to Folded 4 reach the journal.
	failOnce := faultinject.FailN(errors.New("transient io error"), 1)
	restore := faultinject.Set(faultinject.SiteWorkerReplicate, func(ctx context.Context, detail any) error {
		if detail.(faultinject.WorkerReplicate).Run == failAt {
			return failOnce(ctx, detail)
		}
		return nil
	})
	path := filepath.Join(t.TempDir(), "campaign.journal")
	pr, err := New(Options{JournalPath: path, Workers: 1, SnapshotEvery: every}).
		Run(context.Background(), base, runs)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if pr.Status != StatusFailed || pr.Attempts != 1 {
		t.Fatalf("failing point status %v after %d attempt(s), want failed after 1", pr.Status, pr.Attempts)
	}
	st, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	p := st.Points[0]
	if p == nil || p.Snap == nil || p.Snap.Folded == 0 || !p.Failed || p.Attempts != 1 {
		t.Fatalf("journal after the failure holds %+v, want a snapshot, the failure and 1 attempt", p)
	}

	var simulated atomic.Int64
	defer faultinject.Set(faultinject.SiteWorkerReplicate, func(context.Context, any) error {
		simulated.Add(1)
		return nil
	})()
	pr, err = New(Options{JournalPath: path, Resume: true, Workers: 1, SnapshotEvery: every}).
		Run(context.Background(), base, runs)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Status != StatusDone || pr.Attempts != 2 {
		t.Fatalf("resumed point status %v after %d attempt(s): %v", pr.Status, pr.Attempts, pr.Err)
	}
	if n := simulated.Load(); n != int64(runs-p.Snap.Folded) {
		t.Fatalf("resume simulated %d replicates, want %d (runs %d less the %d the snapshot folds)",
			n, runs-p.Snap.Folded, runs, p.Snap.Folded)
	}
	sameMC(t, "resumed point", pr.MC, want[0].MC)
}

// TestResumeLegacyRetryJournal resumes a journal written when campaigns
// still retried points and tripped a per-strategy breaker: two attempts
// at point 1 (attempt_failed ×2, point_error), then a breaker skip of
// point 2. The skip record is ignored, every point completes
// bit-identically, and the re-attempted point counts its journaled
// attempts.
func TestResumeLegacyRetryJournal(t *testing.T) {
	base := tinyConfig(mustStrategy(t, "Ordered-NB-Daly"), 43)
	grid := driver.SweepGrid{
		BandwidthsBps: []float64{units.GBps(0.25), units.GBps(0.5), units.GBps(1)},
	}
	const runs = 12
	want := golden(t, base, grid, runs)

	legacy, err := os.ReadFile("testdata/legacy-retry.journal")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{`"t":"attempt_failed"`, `"t":"point_error"`, `"t":"point_skipped"`} {
		if !strings.Contains(string(legacy), kind) {
			t.Fatalf("fixture holds no %s record", kind)
		}
	}
	path := filepath.Join(t.TempDir(), "campaign.journal")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if p := st.Points[1]; p == nil || p.Attempts != 2 || !p.Failed {
		t.Fatalf("legacy point 1 replays as %+v, want 2 failed attempts", p)
	}
	if p, ok := st.Points[2]; ok {
		t.Fatalf("the point_skipped record was applied: point 2 replays as %+v", p)
	}

	seq, errf := New(Options{JournalPath: path, Resume: true, Workers: 2}).
		RunSweep(context.Background(), base, grid, runs)
	var got []PointResult
	for pr := range seq {
		got = append(got, pr)
	}
	if err := errf(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("resumed %d points, want %d", len(got), len(want))
	}
	wantAttempts := []int{0, st.Points[1].Attempts + 1, 1}
	for i, pr := range got {
		if pr.Status != StatusDone {
			t.Fatalf("legacy point %d status %v: %v", i, pr.Status, pr.Err)
		}
		if pr.Attempts != wantAttempts[i] {
			t.Fatalf("legacy point %d reports %d attempt(s), want %d", i, pr.Attempts, wantAttempts[i])
		}
		sameMC(t, "legacy resume", pr.MC, want[i].MC)
	}
}

// TestCampaignFingerprintMismatch: a journal resumed against a different
// campaign (here: different seed) is rejected, not merged.
func TestCampaignFingerprintMismatch(t *testing.T) {
	base := tinyConfig(mustStrategy(t, "Ordered-NB-Daly"), 81)
	path := filepath.Join(t.TempDir(), "campaign.journal")

	seq, errf := New(Options{JournalPath: path, Workers: 2}).
		RunSweep(context.Background(), base, driver.SweepGrid{}, 4)
	for range seq {
	}
	if err := errf(); err != nil {
		t.Fatal(err)
	}

	other := base
	other.Seed = 82
	seq, errf = New(Options{JournalPath: path, Resume: true, Workers: 2}).
		RunSweep(context.Background(), other, driver.SweepGrid{}, 4)
	for range seq {
	}
	if err := errf(); err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("fingerprint mismatch accepted (err %v)", err)
	}

	// And an existing journal without -resume is an explicit error.
	seq, errf = New(Options{JournalPath: path, Workers: 2}).
		RunSweep(context.Background(), base, driver.SweepGrid{}, 4)
	for range seq {
	}
	if err := errf(); err == nil || !errors.Is(err, fs.ErrExist) {
		t.Fatalf("overwriting an existing journal accepted (err %v)", err)
	}
}

// TestCampaignFingerprintInterferenceParams: the fingerprint covers an
// interference model's parameters, so a journal written under
// Degraded{Gamma: 0.5} is refused by a resume under Gamma 0.9 instead of
// replaying the other model's results, and still resumes under 0.5.
func TestCampaignFingerprintInterferenceParams(t *testing.T) {
	base := tinyConfig(mustStrategy(t, "Oblivious-Daly"), 83)
	base.Interference = iomodel.Degraded{Gamma: 0.5}
	path := filepath.Join(t.TempDir(), "campaign.journal")
	run := func(cfg engine.Config, resume bool) error {
		seq, errf := New(Options{JournalPath: path, Resume: resume, Workers: 2}).
			RunSweep(context.Background(), cfg, driver.SweepGrid{}, 2)
		for range seq {
		}
		return errf()
	}
	if err := run(base, false); err != nil {
		t.Fatal(err)
	}
	other := base
	other.Interference = iomodel.Degraded{Gamma: 0.9}
	if err := run(other, true); err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("resume under another Degraded gamma accepted (err %v)", err)
	}
	if err := run(base, true); err != nil {
		t.Fatalf("resume under the same gamma: %v", err)
	}
}

// childEnv marks the re-executed helper process of the SIGKILL test.
const childEnv = "REPRO_CAMPAIGN_CHILD_JOURNAL"

// killGrid is the shared campaign of the SIGKILL test: every registered
// strategy on the tiny platform.
func killGrid() driver.SweepGrid {
	return driver.SweepGrid{Strategies: engine.AllStrategies()}
}

const killRuns = 4

// TestCampaignChildProcess is the re-executed half of the SIGKILL test:
// it runs the journaled campaign until its parent kills it. It skips
// unless spawned by TestCampaignSIGKILLResume.
func TestCampaignChildProcess(t *testing.T) {
	path := os.Getenv(childEnv)
	if path == "" {
		t.Skip("helper process for TestCampaignSIGKILLResume")
	}
	// Pace the replicates so the campaign outlasts several of the
	// parent's 5 ms journal polls: unpaced, the tiny sweep can finish
	// between two polls and the kill lands on a sealed journal. The hook
	// returns nil, so every result is unchanged.
	defer faultinject.Set(faultinject.SiteWorkerReplicate, func(ctx context.Context, _ any) error {
		select {
		case <-time.After(2 * time.Millisecond):
		case <-ctx.Done():
		}
		return nil
	})()
	base := tinyConfig(mustStrategy(t, "Ordered-NB-Daly"), 97)
	// SyncEvery 1: every snapshot durable, so the parent's kill point is
	// always recoverable. Slow on purpose-built hardware is fine here —
	// the grid is tiny.
	seq, errf := New(Options{JournalPath: path, Resume: true, Workers: 2, SyncEvery: 1}).
		RunSweep(context.Background(), base, killGrid(), killRuns)
	for range seq {
	}
	if err := errf(); err != nil {
		t.Fatal(err)
	}
}

// TestCampaignSIGKILLResume is the crash-recovery integration test: a
// child process runs the journaled campaign over every registered
// strategy, the parent SIGKILLs it mid-sweep (no cleanup, no final
// syncs — a real crash), resumes the journal in-process, and asserts
// every point of the resumed campaign is bit-identical to an
// uninterrupted golden run.
func TestCampaignSIGKILLResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child test process")
	}
	base := tinyConfig(mustStrategy(t, "Ordered-NB-Daly"), 97)
	want := golden(t, base, killGrid(), killRuns)

	path := filepath.Join(t.TempDir(), "campaign.journal")
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCampaignChildProcess$", "-test.v")
	cmd.Env = append(os.Environ(), childEnv+"="+path)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck

	// Kill once the journal proves the campaign is mid-sweep: at least
	// one point sealed and a second in flight.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("child campaign made no journaled progress within 60s")
		}
		st, err := ReadJournal(path)
		if err == nil {
			done := 0
			for _, p := range st.Points {
				if p.Done != nil {
					done++
				}
			}
			if done >= 1 && len(st.Points) > done {
				break
			}
			if done >= 2 {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() //nolint:errcheck

	st, err := ReadJournal(path)
	if err != nil {
		t.Fatalf("journal unreadable after SIGKILL: %v", err)
	}
	if st.Sealed {
		t.Fatal("child was killed after completing the whole campaign; kill earlier")
	}

	seq, errf := New(Options{JournalPath: path, Resume: true, Workers: 3}).
		RunSweep(context.Background(), base, killGrid(), killRuns)
	var got []PointResult
	restoredPoints := 0
	for pr := range seq {
		if pr.Restored {
			restoredPoints++
		}
		got = append(got, pr)
	}
	if err := errf(); err != nil {
		t.Fatalf("resume after SIGKILL: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("resumed %d points, want %d", len(got), len(want))
	}
	if restoredPoints == 0 {
		t.Fatal("resume re-simulated every point; the journal restored nothing")
	}
	for i := range got {
		if got[i].Status != StatusDone {
			t.Fatalf("resumed point %d (%s) status %v: %v",
				i, got[i].Point.Strategy.Name(), got[i].Status, got[i].Err)
		}
		sameMC(t, "SIGKILL-resumed "+got[i].Point.Strategy.Name(), got[i].MC, want[i].MC)
	}

	// The sealed resumed journal now replays without any simulation.
	st, err = ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Sealed {
		t.Fatal("resumed campaign did not seal the journal")
	}
}

// TestCampaignProgressSnapshot pins the pollable progress snapshot: it
// advances monotonically while the iterator is consumed, and a snapshot
// read never perturbs or consumes the campaign itself.
func TestCampaignProgressSnapshot(t *testing.T) {
	base := tinyConfig(mustStrategy(t, "Least-Waste"), 7)
	grid := driver.SweepGrid{Strategies: []engine.Strategy{
		mustStrategy(t, "Least-Waste"), mustStrategy(t, "Ordered-Daly"),
	}}
	const runs = 3

	c := New(Options{Workers: 2})
	if p := c.Snapshot(); p != (Progress{}) {
		t.Fatalf("fresh campaign snapshot %+v, want zero", p)
	}
	seq, errf := c.RunSweep(context.Background(), base, grid, runs)
	seen := 0
	lastDone, lastFolded := 0, 0
	for pr := range seq {
		seen++
		p := c.Snapshot()
		if p.PointsTotal != 2 || p.ReplicatesTotal != 2*runs {
			t.Fatalf("snapshot totals %+v", p)
		}
		if p.PointsDone < lastDone || p.ReplicatesFolded < lastFolded {
			t.Fatalf("progress regressed: %+v after done=%d folded=%d", p, lastDone, lastFolded)
		}
		lastDone, lastFolded = p.PointsDone, p.ReplicatesFolded
		if p.PointsDone < seen {
			t.Fatalf("yielded %d points but snapshot reports %d done", seen, p.PointsDone)
		}
		_ = pr
	}
	if err := errf(); err != nil {
		t.Fatal(err)
	}
	final := c.Snapshot()
	want := Progress{PointsDone: 2, PointsTotal: 2, ReplicatesFolded: 2 * runs, ReplicatesTotal: 2 * runs}
	if final != want {
		t.Fatalf("terminal snapshot %+v, want %+v", final, want)
	}
}
