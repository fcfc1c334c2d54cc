package iosched

import "repro/internal/iomodel"

// funcSink adapts a closure to iomodel.Sink for tests: start (when set)
// observes TransferStarted; completions are ignored.
type funcSink struct {
	start func(now float64)
}

func (s funcSink) TransferStarted(_ *iomodel.Transfer, now float64) {
	if s.start != nil {
		s.start(now)
	}
}

func (funcSink) TransferCompleted(*iomodel.Transfer, float64) {}
