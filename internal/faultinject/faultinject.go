// Package faultinject is the test-only fault-injection layer behind the
// crash-resilience proofs: named hook sites compiled into the production
// code paths (the Monte-Carlo worker, the campaign journal writer) fire
// armed test hooks that panic, hang, fail, or shorten writes on demand.
//
// The production cost when nothing is armed is one atomic load per site
// visit; tests arm hooks with Set and restore them with the returned
// function. Hooks are process-global — parallel tests that arm hooks must
// not run concurrently with each other (use t.Cleanup(restore) and keep
// such tests in one package, as the campaign and engine suites do).
package faultinject

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Hook sites. Each names one injection point in the production code; the
// detail value passed to Fire is site-specific.
const (
	// SiteWorkerReplicate fires in the Monte-Carlo worker immediately
	// before a replicate is simulated, inside the panic-recovery guard;
	// detail is a WorkerReplicate. A panicking hook exercises the
	// worker's recover path; a hook blocking on ctx exercises the
	// per-point deadline.
	SiteWorkerReplicate = "engine/worker.replicate"
	// SiteJournalWrite fires before each framed journal record reaches
	// the file; detail is the record payload length (int). Return an
	// error to fail the write, or a ShortWrite to let only a prefix of
	// the frame land on disk — the torn-tail case resume must survive.
	SiteJournalWrite = "campaign/journal.write"
	// SiteJournalSync fires before each journal fsync; detail is nil.
	// Return an error to fail the sync.
	SiteJournalSync = "campaign/journal.sync"
)

// WorkerReplicate is the detail value of SiteWorkerReplicate: the grid
// point and run index of the replicate (points of a grid run together).
type WorkerReplicate struct {
	Point, Run int
}

// Hook is an armed injection: return nil to let the site proceed, return
// an error to fail it, panic to exercise the site's recovery path, or
// block on ctx.Done() to simulate a hang that honours cancellation (a
// goroutine stuck in user code that ignores ctx cannot be killed — the
// deadline machinery covers cancellable stalls, which is what this layer
// simulates).
type Hook func(ctx context.Context, detail any) error

// ShortWrite instructs SiteJournalWrite to let only the first N bytes of
// the frame reach the file before reporting failure — the torn record a
// crash mid-write leaves behind.
type ShortWrite struct{ N int }

// Error implements error.
func (s ShortWrite) Error() string {
	return fmt.Sprintf("faultinject: short write (%d bytes land)", s.N)
}

var (
	armed atomic.Int32 // number of armed hooks: the disarmed fast path
	mu    sync.Mutex
	hooks = map[string]Hook{}
)

// Set arms a hook at the site, replacing any previous one, and returns
// the function that restores the previous state. Arming a nil hook
// disarms the site.
func Set(site string, h Hook) (restore func()) {
	mu.Lock()
	prev := hooks[site]
	setLocked(site, h)
	mu.Unlock()
	return func() {
		mu.Lock()
		setLocked(site, prev)
		mu.Unlock()
	}
}

// setLocked installs (or, for nil, removes) the site's hook and keeps the
// armed count equal to the number of installed hooks. Callers hold mu.
func setLocked(site string, h Hook) {
	_, cur := hooks[site]
	switch {
	case h == nil && cur:
		delete(hooks, site)
		armed.Add(-1)
	case h != nil:
		hooks[site] = h
		if !cur {
			armed.Add(1)
		}
	}
}

// Armed reports whether any hook is armed — the one-load guard production
// sites check before paying for Fire.
func Armed() bool { return armed.Load() > 0 }

// Fire invokes the hook armed at the site, if any. A nil return lets the
// caller proceed. Panics propagate to the caller — that is the point.
func Fire(ctx context.Context, site string, detail any) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	h := hooks[site]
	mu.Unlock()
	if h == nil {
		return nil
	}
	return h(ctx, detail)
}

// PanicOn returns a hook that panics with msg whenever match reports true
// for the site's detail value, and proceeds otherwise.
func PanicOn(msg string, match func(detail any) bool) Hook {
	return func(_ context.Context, detail any) error {
		if match == nil || match(detail) {
			panic(msg)
		}
		return nil
	}
}

// FailN returns a hook that fails its first n firings with err, then
// proceeds — e.g. a transiently failing replicate that a resumed
// campaign gets past.
func FailN(err error, n int) Hook {
	var fired atomic.Int64
	return func(context.Context, any) error {
		if fired.Add(1) <= int64(n) {
			return err
		}
		return nil
	}
}

// HangUntilCancel returns a hook that blocks until ctx is cancelled and
// then reports ctx.Err() — the cancellable stall a per-point deadline
// must cut short.
func HangUntilCancel() Hook {
	return func(ctx context.Context, _ any) error {
		<-ctx.Done()
		return ctx.Err()
	}
}

// ShortWriteOnce returns a SiteJournalWrite hook that tears exactly one
// record — the first firing after skip records — letting n bytes of its
// frame land, and proceeds before and after.
func ShortWriteOnce(skip, n int) Hook {
	var fired atomic.Int64
	return func(context.Context, any) error {
		if fired.Add(1) == int64(skip)+1 {
			return ShortWrite{N: n}
		}
		return nil
	}
}
