package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/platform"
	"repro/internal/units"
	"repro/internal/workload"
)

// specJSON builds a small sweep submission: `strategies` on Cielo, the
// given horizon and replication count.
func specJSON(t *testing.T, name string, strategies []string, horizonDays float64, runs int) []byte {
	t.Helper()
	spec := api.CampaignSpec{
		Name: name,
		Config: api.Config{
			Platform:    api.Platform{Name: "cielo", BandwidthGBps: 40, NodeMTBFYears: 2},
			Seed:        1,
			HorizonDays: horizonDays,
		},
		Grid: api.SweepGrid{Strategies: strategies},
		Runs: runs,
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func submit(t *testing.T, baseURL string, body []byte) string {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e api.Error
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, e.Error)
	}
	var sr api.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr.ID
}

// readStream consumes a full result stream and returns the point frames
// and the end frame.
func readStream(t *testing.T, ts *httptest.Server, id string, from int) ([]api.PointResult, api.StreamEnd) {
	t.Helper()
	url := fmt.Sprintf("%s/v1/campaigns/%s/results?from=%d", ts.URL, id, from)
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var points []api.PointResult
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var frame api.StreamFrame
		if err := json.Unmarshal(sc.Bytes(), &frame); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		switch {
		case frame.Point != nil:
			points = append(points, *frame.Point)
		case frame.End != nil:
			return points, *frame.End
		default:
			t.Fatalf("frame with neither point nor end: %q", sc.Text())
		}
	}
	t.Fatalf("stream ended without an end frame (%v)", sc.Err())
	return nil, api.StreamEnd{}
}

var identityStrategies = []string{"Least-Waste", "Ordered-Daly"}

// TestStreamBitIdentity pins the tentpole acceptance criterion: a sweep
// submitted over HTTP streams the exact MCResult sequence the
// in-process Session.Sweep produces.
func TestStreamBitIdentity(t *testing.T) {
	_, ts := newTestServer(t, Options{DataDir: t.TempDir()})
	id := submit(t, ts.URL, specJSON(t, "identity", identityStrategies, 3, 3))
	points, end := readStream(t, ts, id, 0)
	if end.State != StateDone || end.Points != len(points) {
		t.Fatalf("end frame %+v over %d points", end, len(points))
	}

	want := goldenSweep(t, identityStrategies, 3, 3)
	if len(points) != len(want) {
		t.Fatalf("streamed %d points, session produced %d", len(points), len(want))
	}
	for i, p := range points {
		if p.Status != "done" || p.MC == nil {
			t.Fatalf("point %d: %+v", i, p)
		}
		if got := p.MC.Engine(); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("point %d drifted from Session.Sweep:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
}

// goldenSweep runs the equivalent sweep through a plain streaming
// session — the reference the HTTP stream must match bit for bit.
func goldenSweep(t *testing.T, strategies []string, horizonDays float64, runs int) []engine.MCResult {
	t.Helper()
	base := engine.Config{
		Platform:    platform.Cielo(40, 2),
		Classes:     workload.APEXClasses(),
		Seed:        1,
		HorizonDays: horizonDays,
	}
	var strats []engine.Strategy
	for _, name := range strategies {
		s, ok := engine.StrategyByName(name)
		if !ok {
			t.Fatalf("unknown strategy %q", name)
		}
		strats = append(strats, s)
	}
	grid := engine.SweepGrid{Strategies: strats}
	session := engine.NewSession()
	seq, errf := session.Sweep(context.Background(), base, grid, runs)
	var out []engine.MCResult
	for _, mc := range seq {
		out = append(out, mc)
	}
	if err := errf(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestKillAndResume pins the second acceptance criterion: a daemon
// stopped mid-campaign resumes it from the journal at the next boot,
// and the completed stream matches the uninterrupted golden run.
func TestKillAndResume(t *testing.T) {
	dataDir := t.TempDir()
	strategies := []string{"Least-Waste", "Fair-Share", "Ordered-Daly", "Ordered-NB-Daly"}

	s1, err := New(Options{DataDir: dataDir, MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	id := submit(t, ts1.URL, mustSpec(t, strategies))
	// Wait until the campaign has made real progress, then pull the
	// plug: an immediate drain cancels mid-point, exactly like a
	// SIGTERM arriving while replicates are folding.
	waitFor(t, func() bool {
		info, err := s1.Info(id)
		return err == nil && info.Progress.ReplicatesFolded > 0
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts1.Close()

	// Boot a second server over the same data dir: the campaign must
	// come back and run to completion.
	s2, ts2 := newTestServer(t, Options{DataDir: dataDir, MaxConcurrent: 1})
	infos := s2.List()
	if len(infos) != 1 || infos[0].ID != id {
		t.Fatalf("restart did not resume the campaign: %+v", infos)
	}
	points, end := readStream(t, ts2, id, 0)
	if end.State != StateDone {
		t.Fatalf("resumed campaign ended %+v", end)
	}

	want := goldenSweep(t, strategies, 4, 8)
	if len(points) != len(want) {
		t.Fatalf("resumed stream has %d points, golden %d", len(points), len(want))
	}
	restored := 0
	for i, p := range points {
		if p.Restored {
			restored++
		}
		if got := p.MC.Engine(); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("point %d drifted after resume:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
	t.Logf("resume: %d of %d points restored from journal", restored, len(points))
}

func mustSpec(t *testing.T, strategies []string) []byte {
	return specJSON(t, "resume", strategies, 4, 8)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never held")
}

// TestCancelMidFlight exercises DELETE while replicates are folding:
// the campaign reaches the cancelled state, its stream closes with a
// cancelled end frame, and its files are gone so a restart would not
// resurrect it.
func TestCancelMidFlight(t *testing.T) {
	dataDir := t.TempDir()
	s, ts := newTestServer(t, Options{DataDir: dataDir})
	id := submit(t, ts.URL, specJSON(t, "cancel-me", []string{"Least-Waste", "Fair-Share"}, 30, 64))
	waitFor(t, func() bool {
		info, err := s.Info(id)
		return err == nil && info.Progress.ReplicatesFolded > 0
	})

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}

	_, end := readStream(t, ts, id, 0)
	if end.State != StateCancelled {
		t.Fatalf("cancelled campaign ended %+v", end)
	}
	waitFor(t, func() bool {
		info, _ := s.Info(id)
		return terminalState(info.State)
	})
	waitFor(t, func() bool {
		ents, err := listDir(dataDir)
		return err == nil && len(ents) == 0
	})
}

// TestStreamResumeOffset pins ?from=: a second read starting at an
// offset sees exactly the tail of the full stream.
func TestStreamResumeOffset(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := submit(t, ts.URL, specJSON(t, "offset", identityStrategies, 3, 2))
	full, _ := readStream(t, ts, id, 0)
	if len(full) < 2 {
		t.Fatalf("want at least 2 points, got %d", len(full))
	}
	tail, end := readStream(t, ts, id, 1)
	if end.Points != len(full) {
		t.Fatalf("end frame counts %d points, full stream has %d", end.Points, len(full))
	}
	if !reflect.DeepEqual(tail, full[1:]) {
		t.Fatalf("offset stream drifted:\n got %+v\nwant %+v", tail, full[1:])
	}
}

// TestAdmissionControl pins the 429 path: with one slot and one queue
// entry, a third concurrent campaign is refused.
func TestAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxConcurrent: 1, MaxQueue: 1})
	long := specJSON(t, "long", []string{"Least-Waste"}, 30, 256)
	id1 := submit(t, ts.URL, long)
	id2 := submit(t, ts.URL, long)

	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(long))
	if err != nil {
		t.Fatal(err)
	}
	var e api.Error
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submission: status %d (%s)", resp.StatusCode, e.Error)
	}

	// Free the pool so the deferred drain does not wait on 512 runs.
	s.Cancel(id1)
	s.Cancel(id2)
}

// TestAdmissionAtomic: admission reserves the queue slot in the same
// critical section as the capacity check, so a burst of concurrent
// submissions can never overfill the queue while earlier ones are still
// writing their spec files. With one slot and one queue entry, exactly
// two of sixteen simultaneous submissions are accepted, every time.
func TestAdmissionAtomic(t *testing.T) {
	var long api.CampaignSpec
	if err := json.Unmarshal(specJSON(t, "long", []string{"Least-Waste"}, 30, 4096), &long); err != nil {
		t.Fatal(err)
	}
	const tries, submitters = 20, 16
	for try := 0; try < tries; try++ {
		s, err := New(Options{DataDir: t.TempDir(), MaxConcurrent: 1, MaxQueue: 1})
		if err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, submitters)
		start := make(chan struct{})
		for i := 0; i < submitters; i++ {
			go func() {
				<-start
				_, err := s.Submit(long)
				errs <- err
			}()
		}
		close(start)
		accepted := 0
		for i := 0; i < submitters; i++ {
			switch err := <-errs; {
			case err == nil:
				accepted++
			case !errors.Is(err, ErrQueueFull):
				t.Fatalf("try %d: submission failed: %v", try, err)
			}
		}
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		if accepted != 2 {
			t.Fatalf("try %d: %d of %d concurrent submissions accepted, capacity is 2", try, accepted, submitters)
		}
	}
}

// checkCounters compares the O(1) queued/running counters Health reports
// with a full walk over every campaign ever submitted. Callers wait for
// the server to settle first, so no transition is in flight.
func checkCounters(t *testing.T, s *Server, step string) {
	t.Helper()
	s.mu.Lock()
	runs := make([]*run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	s.mu.Unlock()
	var queued, running int
	for _, r := range runs {
		r.mu.Lock()
		switch r.state {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
		r.mu.Unlock()
	}
	if h := s.Health(); h.Queued != queued || h.Running != running || h.Total != len(runs) {
		t.Fatalf("%s: health reports %d queued, %d running of %d; a walk finds %d, %d of %d",
			step, h.Queued, h.Running, h.Total, queued, running, len(runs))
	}
}

// TestStateCountersMatchWalk: admission and health read counters kept by
// the state setter instead of walking every campaign. Through submits,
// an admission refusal, cancels of queued and running campaigns, a
// completion and a drain, the counters must equal a full walk.
func TestStateCountersMatchWalk(t *testing.T) {
	s, err := New(Options{MaxConcurrent: 1, MaxQueue: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	spec := func(name string, horizonDays float64, runs int) api.CampaignSpec {
		var sp api.CampaignSpec
		if err := json.Unmarshal(specJSON(t, name, []string{"Least-Waste"}, horizonDays, runs), &sp); err != nil {
			t.Fatal(err)
		}
		return sp
	}
	mustSubmit := func(sp api.CampaignSpec) string {
		t.Helper()
		id, err := s.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	state := func(id string) string {
		info, err := s.Info(id)
		if err != nil {
			t.Fatal(err)
		}
		return info.State
	}
	long := spec("long", 5, 4096)

	a := mustSubmit(long)
	waitFor(t, func() bool { return state(a) == StateRunning })
	checkCounters(t, s, "one running")

	b, c := mustSubmit(long), mustSubmit(long)
	checkCounters(t, s, "one running, two queued")
	if _, err := s.Submit(long); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submission beyond capacity: %v, want ErrQueueFull", err)
	}
	checkCounters(t, s, "after a refused submission")

	s.Cancel(b)
	waitFor(t, func() bool { return terminalState(state(b)) })
	checkCounters(t, s, "queued campaign cancelled")

	short := mustSubmit(spec("short", 3, 2))
	s.Cancel(a)
	waitFor(t, func() bool { return terminalState(state(a)) && state(c) == StateRunning })
	checkCounters(t, s, "running campaign cancelled, next one running")

	s.Cancel(c)
	waitFor(t, func() bool { return state(short) == StateDone })
	checkCounters(t, s, "campaign completed")

	e, f := mustSubmit(long), mustSubmit(long)
	// Either may win the free slot.
	waitFor(t, func() bool { return state(e) == StateRunning || state(f) == StateRunning })
	checkCounters(t, s, "one running, one queued before the drain")
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !terminalState(state(e)) || !terminalState(state(f)) {
		t.Fatalf("drain left campaigns %s / %s", state(e), state(f))
	}
	checkCounters(t, s, "drained")
}

// TestBadSpecAllErrors pins the 400 path and that the body carries
// every field error at once.
func TestBadSpecAllErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := `{"config":{"platform":{"name":"atlantis"},"strategy":"Nope","scheduler":"quantum"},"runs":0}`
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: status %d", resp.StatusCode)
	}
	var e api.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"atlantis", "Nope", "quantum", "runs"} {
		if !strings.Contains(e.Error, want) {
			t.Errorf("400 body is missing the %q failure: %s", want, e.Error)
		}
	}
}

// TestNotFound pins 404s on the three id-addressed endpoints.
func TestNotFound(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, ep := range []string{"/v1/campaigns/c-missing", "/v1/campaigns/c-missing/results"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d", ep, resp.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/c-missing", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE: status %d", resp.StatusCode)
	}
}

// TestHealthAndStrategies pins the discovery endpoints.
func TestHealthAndStrategies(t *testing.T) {
	_, ts := newTestServer(t, Options{Version: "test-build"})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h api.Health
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h.Status != "ok" || h.Version != "test-build" {
		t.Fatalf("health %+v", h)
	}

	resp, err = http.Get(ts.URL + "/v1/strategies")
	if err != nil {
		t.Fatal(err)
	}
	var sr api.StrategiesResponse
	json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if len(sr.Strategies) != len(engine.AllStrategies()) || len(sr.Schedulers) == 0 {
		t.Fatalf("strategies %+v", sr)
	}
}

// TestJournalWriteFaultDuringStream arms faultinject at the journal
// write site while a campaign streams: the campaign must reach the
// failed state (durability cannot be silently dropped) and the stream
// must close with a failed end frame rather than hang.
func TestJournalWriteFaultDuringStream(t *testing.T) {
	restore := faultinject.Set(faultinject.SiteJournalWrite,
		faultinject.FailN(errors.New("injected: journal write EIO"), 3))
	defer restore()

	_, ts := newTestServer(t, Options{DataDir: t.TempDir()})
	id := submit(t, ts.URL, specJSON(t, "faulty", identityStrategies, 3, 3))
	_, end := readStream(t, ts, id, 0)
	if end.State != StateFailed {
		t.Fatalf("campaign with failing journal ended %+v", end)
	}
	if !strings.Contains(end.Error, "injected") {
		t.Fatalf("end frame error does not surface the injected fault: %q", end.Error)
	}
}

// TestProgressSnapshot pins the satellite: GET /v1/campaigns/{id}
// reports advancing progress without consuming the result stream.
func TestProgressSnapshot(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	id := submit(t, ts.URL, specJSON(t, "progress", identityStrategies, 3, 4))
	waitFor(t, func() bool {
		info, err := s.Info(id)
		return err == nil && terminalState(info.State)
	})
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var info api.CampaignInfo
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	p := info.Progress
	if p.PointsDone != 2 || p.PointsTotal != 2 || p.ReplicatesFolded != 8 || p.ReplicatesTotal != 8 {
		t.Fatalf("terminal progress %+v", p)
	}
	// The inspection must not have consumed the stream.
	points, end := readStream(t, ts, id, 0)
	if len(points) != 2 || end.State != StateDone {
		t.Fatalf("stream after inspection: %d points, end %+v", len(points), end)
	}
}

// sanity check the bandwidth helper the specs rely on resolves as the
// engine preset does.
func TestSpecPlatformMatchesPreset(t *testing.T) {
	wire := api.Platform{Name: "cielo", BandwidthGBps: 40, NodeMTBFYears: 2}
	plat, err := wire.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want := platform.Cielo(40, 2)
	if plat != want {
		t.Fatalf("wire platform %+v, preset %+v", plat, want)
	}
	if plat.BandwidthBps != units.GBps(40) {
		t.Fatalf("bandwidth %v", plat.BandwidthBps)
	}
}

// listDir returns the data directory's entries (helper for asserting
// cancelled campaigns leave no files behind).
func listDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names, nil
}
