package faultinject

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestDisarmedFastPath(t *testing.T) {
	if Armed() {
		t.Fatal("hooks armed at start")
	}
	if err := Fire(context.Background(), SiteWorkerReplicate, WorkerReplicate{}); err != nil {
		t.Fatalf("disarmed Fire returned %v", err)
	}
}

func TestSetFireRestore(t *testing.T) {
	sentinel := errors.New("boom")
	restore := Set(SiteJournalWrite, func(_ context.Context, detail any) error {
		if detail.(int) != 42 {
			t.Errorf("detail = %v, want 42", detail)
		}
		return sentinel
	})
	if !Armed() {
		t.Fatal("Set did not arm")
	}
	if err := Fire(context.Background(), SiteJournalWrite, 42); !errors.Is(err, sentinel) {
		t.Fatalf("Fire = %v, want sentinel", err)
	}
	// An unrelated site stays a no-op.
	if err := Fire(context.Background(), SiteJournalSync, nil); err != nil {
		t.Fatalf("unarmed site fired: %v", err)
	}
	restore()
	if Armed() {
		t.Fatal("restore did not disarm")
	}
}

func TestRestoreReinstallsPrevious(t *testing.T) {
	first := errors.New("first")
	r1 := Set(SiteJournalSync, func(context.Context, any) error { return first })
	r2 := Set(SiteJournalSync, func(context.Context, any) error { return errors.New("second") })
	r2()
	if err := Fire(context.Background(), SiteJournalSync, nil); !errors.Is(err, first) {
		t.Fatalf("after inner restore, Fire = %v, want first", err)
	}
	r1()
	if Armed() {
		t.Fatal("outer restore did not disarm")
	}
}

func TestPanicOnPropagates(t *testing.T) {
	restore := Set(SiteWorkerReplicate, PanicOn("injected", func(detail any) bool {
		return detail.(WorkerReplicate).Run == 3
	}))
	defer restore()
	if err := Fire(context.Background(), SiteWorkerReplicate, WorkerReplicate{Run: 2}); err != nil {
		t.Fatalf("non-matching detail fired: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("matching detail did not panic")
		}
	}()
	Fire(context.Background(), SiteWorkerReplicate, WorkerReplicate{Run: 3})
}

func TestFailN(t *testing.T) {
	sentinel := errors.New("transient")
	h := FailN(sentinel, 2)
	for i := 0; i < 2; i++ {
		if err := h(context.Background(), nil); !errors.Is(err, sentinel) {
			t.Fatalf("firing %d = %v, want sentinel", i, err)
		}
	}
	if err := h(context.Background(), nil); err != nil {
		t.Fatalf("firing after n = %v, want nil", err)
	}
}

func TestHangUntilCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- HangUntilCancel()(ctx, nil) }()
	select {
	case err := <-done:
		t.Fatalf("hang returned %v before cancel", err)
	case <-time.After(10 * time.Millisecond):
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("hang returned %v, want context.Canceled", err)
	}
}

func TestShortWriteOnce(t *testing.T) {
	h := ShortWriteOnce(1, 7)
	if err := h(context.Background(), 100); err != nil {
		t.Fatalf("skipped firing failed: %v", err)
	}
	var sw ShortWrite
	if err := h(context.Background(), 100); !errors.As(err, &sw) || sw.N != 7 {
		t.Fatalf("second firing = %v, want ShortWrite{7}", err)
	}
	if err := h(context.Background(), 100); err != nil {
		t.Fatalf("third firing failed: %v", err)
	}
}
