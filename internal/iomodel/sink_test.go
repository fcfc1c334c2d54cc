package iomodel

// funcSink adapts a pair of closures to Sink for tests; a nil closure
// ignores its notification.
type funcSink struct {
	start, done func(now float64)
}

func (s funcSink) TransferStarted(_ *Transfer, now float64) {
	if s.start != nil {
		s.start(now)
	}
}

func (s funcSink) TransferCompleted(_ *Transfer, now float64) {
	if s.done != nil {
		s.done(now)
	}
}
