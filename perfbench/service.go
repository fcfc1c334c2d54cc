package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/api"
	"repro/internal/resultcache"
	"repro/internal/server"
)

// The service-stream scenario: each campaign is a window of svcWindow
// bandwidths × the svcStrategies on short horizons, and campaign k's
// window starts svcSlide bandwidths after campaign k-1's, so half of its
// points are cache reads and half are misses the cache then stores. The
// window is listed from the top, so a campaign's first points are
// misses: its first frame waits for a simulation, not for a cache read.
const (
	svcDays     = 10
	svcRuns     = 4
	svcWindow   = 8
	svcSlide    = 4
	svcBaseGBps = 40
	svcStepGBps = 0.5
)

var svcStrategies = []string{"Least-Waste", "Ordered-NB-Daly", "Oblivious-Daly"}

// serviceWorkload POSTs one campaign per result to an in-process coopsimd
// and streams its NDJSON results to the end frame.
type serviceWorkload struct {
	*env
	wrap   func(http.Handler) http.Handler
	setups int

	root   string
	srv    *server.Server
	hs     *http.Server
	served chan error
	client *http.Client
	url    string
	cache  *timedCache

	got [][]api.PointResult
	// ref and overhead serve campaign.overhead_ms_p50 in a traced run:
	// each traced campaign's latency minus the time an in-process
	// Session.Sweep takes for the points the campaign simulated, timed
	// right after it so both see the machine in the same state.
	ref        *repro.Session
	overhead   []float64
	submits    []float64
	frameBytes int
	frames     int
}

func newService(e *env, wrap func(http.Handler) http.Handler) *serviceWorkload {
	return &serviceWorkload{env: e, wrap: wrap}
}

// spec is campaign k's submission; k = -1 is the warm-up.
func (w *serviceWorkload) spec(k int) api.CampaignSpec {
	bws := make([]float64, svcWindow)
	for j := range bws {
		bws[j] = (svcBaseGBps + float64((k+1)*svcSlide+svcWindow-1-j)*svcStepGBps) * 1e9
	}
	return api.CampaignSpec{
		Name: fmt.Sprintf("perfbench-%d", k),
		Config: api.Config{
			Platform:    api.Platform{Name: "cielo", BandwidthGBps: svcBaseGBps, NodeMTBFYears: 2},
			Seed:        derive(w.seed, 1<<32),
			HorizonDays: svcDays,
		},
		Grid: api.SweepGrid{BandwidthsBps: bws, Strategies: svcStrategies},
		Runs: svcRuns,
	}
}

func (w *serviceWorkload) setup(ctx context.Context) (string, error) {
	w.root = filepath.Join(w.dir, fmt.Sprintf("service-%d", w.setups))
	w.setups++
	cache, err := resultcache.New(resultcache.Options{Dir: filepath.Join(w.root, "cache")})
	if err != nil {
		return "", err
	}
	var c repro.ResultCache = cache
	if w.traced {
		w.cache = &timedCache{inner: cache, env: w.env}
		c = w.cache
	}
	w.srv, err = server.New(server.Options{DataDir: filepath.Join(w.root, "data"), MaxConcurrent: 1, Workers: 1, Cache: c})
	if err != nil {
		return "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	h := w.srv.Handler()
	if w.wrap != nil {
		h = w.wrap(h)
	}
	w.hs = &http.Server{Handler: h}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}}
	w.url = "http://" + ln.Addr().String()
	pts, o := w.campaign(ctx, -1)
	if o.err == nil && o.refused {
		o.err = errors.New("warm-up campaign refused")
	}
	if w.traced && o.err == nil {
		w.ref = repro.NewSession(repro.WithWorkers(1))
		if _, err := w.simulate(ctx, -1, pts); err != nil {
			return "", err
		}
	}
	var d digester
	for _, p := range pts {
		d.add(frameCanon(p))
	}
	return d.sum(), o.err
}

func frameCanon(p api.PointResult) string {
	if p.MC == nil {
		return p.Status
	}
	return canon(p.MC.Engine())
}

// campaign submits campaign k and reads its stream to the end frame.
func (w *serviceWorkload) campaign(ctx context.Context, k int) ([]api.PointResult, outcome) {
	tr := w.tracer()
	parent := spanOf(ctx)
	if w.cache != nil {
		w.cache.campaign.Store(int64(k))
	}
	body, err := json.Marshal(w.spec(k))
	if err != nil {
		return nil, outcome{err: err}
	}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/v1/campaigns", bytes.NewReader(body))
	if err != nil {
		return nil, outcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, outcome{err: err}
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	tr.add(k, parent, "POST /v1/campaigns", t0, t1)
	if tr != nil {
		w.submits = append(w.submits, ms(t1.Sub(t0)))
	}
	switch {
	case err != nil:
		return nil, outcome{err: err}
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		return nil, outcome{refused: true}
	case resp.StatusCode != http.StatusAccepted:
		return nil, outcome{err: fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(reply)))}
	}
	var sub api.SubmitResponse
	if err := json.Unmarshal(reply, &sub); err != nil {
		return nil, outcome{err: fmt.Errorf("submit reply: %w", err)}
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/v1/campaigns/"+sub.ID+"/results", nil)
	if err != nil {
		return nil, outcome{err: err}
	}
	resp, err = w.client.Do(req)
	if err != nil {
		return nil, outcome{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, outcome{err: fmt.Errorf("stream: %s", resp.Status)}
	}
	var pts []api.PointResult
	var end *api.StreamEnd
	var first time.Duration
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for end == nil && sc.Scan() {
		var f api.StreamFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return pts, outcome{err: fmt.Errorf("frame: %w", err)}
		}
		switch {
		case f.Point != nil:
			if pts == nil {
				first = time.Since(t0)
				tr.add(k, parent, "first point frame", t0, t0.Add(first))
			}
			pts = append(pts, *f.Point)
			if tr != nil {
				w.frameBytes += len(sc.Bytes()) + 1
				w.frames++
			}
		case f.End != nil:
			end = f.End
		}
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil && sc.Err() == nil {
		return pts, outcome{err: err}
	}
	d := time.Since(t0)
	tr.add(k, parent, "GET /v1/campaigns/{id}/results", t1, t0.Add(d))
	want := svcWindow * len(svcStrategies)
	switch {
	case sc.Err() != nil:
		return pts, outcome{err: fmt.Errorf("stream: %w", sc.Err())}
	case end == nil:
		return pts, outcome{err: errors.New("stream ended without an end frame")}
	case end.State != server.StateDone || end.Points != len(pts) || len(pts) != want:
		return pts, outcome{err: fmt.Errorf("campaign %s: %d of %d points, %+v", sub.ID, len(pts), want, *end)}
	}
	return pts, outcome{latency: d, firstFrame: first}
}

func (w *serviceWorkload) result(ctx context.Context, i int) outcome {
	pts, o := w.campaign(ctx, i)
	w.got = append(w.got, pts)
	if w.tracer() != nil && o.err == nil && !o.refused {
		sim, err := w.simulate(ctx, i, pts)
		if err != nil {
			o.err = err
		}
		w.overhead = append(w.overhead, ms(o.latency-sim))
	}
	return o
}

// simulate times the in-process Session.Sweep, on one worker and with no
// cache, of the bandwidths campaign i streamed as simulated rather than
// as cache hits.
func (w *serviceWorkload) simulate(ctx context.Context, i int, pts []api.PointResult) (time.Duration, error) {
	res, err := w.spec(i).Resolve()
	if err != nil {
		return 0, err
	}
	var bws []float64
	for _, p := range pts {
		if p.MC != nil && !p.MC.Cached && !slices.Contains(bws, p.BandwidthBps) {
			bws = append(bws, p.BandwidthBps)
		}
	}
	if len(bws) == 0 {
		return 0, nil
	}
	res.Grid.BandwidthsBps = bws
	t0 := time.Now()
	seq, errf := w.ref.Sweep(ctx, res.Base, res.Grid, res.Runs)
	for range seq {
	}
	t1 := time.Now()
	w.tracer().add(i, spanOf(ctx), "reference Session.Sweep", t0, t1)
	return t1.Sub(t0), errf()
}

// check runs each campaign's spec through an in-process, uncached
// Session.Sweep and compares every streamed point frame with it.
func (w *serviceWorkload) check(ctx context.Context, n int) (report, error) {
	sessions := make([]*repro.Session, gateWorkers)
	for g := range sessions {
		sessions[g] = repro.NewSession(repro.WithWorkers(1), repro.WithKeepResults(true))
	}
	bad := make([]bool, n)
	events := make([]uint64, n)
	runs := make([]int, n)
	err := parallel(ctx, gateWorkers, n, func(g, k int) error {
		res, err := w.spec(k).Resolve()
		if err != nil {
			return err
		}
		seq, errf := sessions[g].Sweep(ctx, res.Base, res.Grid, res.Runs)
		got := w.got[k]
		j := 0
		for pt, mc := range seq {
			for _, r := range mc.Results {
				events[k] += r.Events
			}
			runs[k] += mc.RunsUsed
			if j >= len(got) {
				bad[k] = true
				break
			}
			p := got[j]
			if p.Index != pt.Index || p.Strategy != pt.Strategy.Name() || p.BandwidthBps != pt.BandwidthBps ||
				p.Status != "done" || p.MC == nil || !w.matches(k, mc, p.MC.Engine()) {
				bad[k] = true
			}
			j++
		}
		if err := errf(); err != nil {
			return fmt.Errorf("campaign %d reference: %w", k, err)
		}
		if j != len(got) {
			bad[k] = true
		}
		return nil
	})
	if err != nil {
		return report{}, err
	}
	rep := report{bad: bad, counts: map[string]float64{}, layers: map[string]float64{}}
	var d digester
	var ev uint64
	var allRuns, simulated, hits int
	for k := 0; k < n; k++ {
		ev += events[k]
		allRuns += runs[k]
		for _, p := range w.got[k] {
			d.add(frameCanon(p))
			switch {
			case p.MC == nil:
			case p.MC.Cached:
				hits++
			default:
				simulated += p.MC.RunsUsed
			}
		}
	}
	rep.digest = d.sum()
	rep.counts["engine.events_per_replicate"] = float64(ev) / float64(allRuns)
	rep.counts["engine.replicates_per_result"] = float64(simulated) / float64(n)
	rep.counts["resultcache.hits_per_result"] = float64(hits) / float64(n)
	if w.traced {
		w.layers(rep.layers, n)
		rep.layers["campaign.overhead_ms_p50"] = quantile(w.overhead, 0.5)
	}
	return rep, nil
}

// layers adds what the client and the cache decorator measured, and the
// journal footprint of every campaign this server ran.
func (w *serviceWorkload) layers(out map[string]float64, n int) {
	out["server.submit_ms_p50"] = quantile(w.submits, 0.5)
	if w.frames > 0 {
		out["api.frame_bytes"] = float64(w.frameBytes) / float64(w.frames)
	}
	if c := w.cache; c != nil {
		c.mu.Lock()
		out["resultcache.get_us_p50"] = quantile(c.gets, 0.5)
		out["resultcache.put_us_p50"] = quantile(c.puts, 0.5)
		if c.lookups > 0 {
			out["resultcache.hit_ratio"] = float64(c.hits) / float64(c.lookups)
		}
		c.mu.Unlock()
	}
	var journal int64
	entries, _ := os.ReadDir(filepath.Join(w.root, "data"))
	for _, e := range entries {
		if info, err := e.Info(); err == nil && strings.HasSuffix(e.Name(), ".journal") {
			journal += info.Size()
		}
	}
	out["campaign.journal_bytes_per_point"] = float64(journal) / float64((n+1)*svcWindow*len(svcStrategies))
}

func (w *serviceWorkload) close() {
	if w.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: http shutdown:", err)
	}
	<-w.served
	if err := w.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: server shutdown:", err)
	}
	w.client.CloseIdleConnections()
	w.hs = nil
	if err := os.RemoveAll(w.root); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

// timedCache is the engine.ResultCache decorator of a traced run: it
// times every lookup and store while tracing is live and counts hits.
// The server calls it from its campaign goroutines.
type timedCache struct {
	inner repro.ResultCache
	env   *env
	// campaign is the result index of the campaign in flight, the
	// trace its spans join.
	campaign atomic.Int64

	mu            sync.Mutex
	lookups, hits int
	gets, puts    []float64
}

func (c *timedCache) Get(key string) (repro.MCResult, bool) {
	tr := c.env.tracer()
	if tr == nil {
		return c.inner.Get(key)
	}
	t0 := time.Now()
	mc, ok := c.inner.Get(key)
	t1 := time.Now()
	tr.add(int(c.campaign.Load()), 0, "ResultCache.Get", t0, t1)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets = append(c.gets, float64(t1.Sub(t0))/float64(time.Microsecond))
	c.lookups++
	if ok {
		c.hits++
	}
	return mc, ok
}

func (c *timedCache) Put(key string, mc repro.MCResult) {
	tr := c.env.tracer()
	if tr == nil {
		c.inner.Put(key, mc)
		return
	}
	t0 := time.Now()
	c.inner.Put(key, mc)
	t1 := time.Now()
	tr.add(int(c.campaign.Load()), 0, "ResultCache.Put", t0, t1)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts = append(c.puts, float64(t1.Sub(t0))/float64(time.Microsecond))
}
