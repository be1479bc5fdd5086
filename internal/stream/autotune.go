package stream

// Self-tuning commit spine. A static TransactionsWindow(n) + MergeBatched(n)
// pair holds out for batches of n; the tuned pair is WORK-CONSERVING: the
// window is only an in-flight (backpressure) bound, fixed at MaxWindow, and
// the spine worker never waits — each batch is whatever boundaries queued
// while the previous batch was committing. Fan-in follows the store by
// itself: ~1 while commits keep up with boundary production, rising toward
// the bound as they lag. Nothing is decided at run time.
//
// The bound changes BATCHING GEOMETRY only: which transactions commit and
// which abort is identical to any static window (the transactions ride one
// txn.Chain either way) — pinned by TestPropertyAdaptiveEquivalence.

// DefaultMaxWindow is the in-flight transaction bound of a tuned spine
// whose AutoTune.MaxWindow is zero.
const DefaultMaxWindow = 64

// AutoTune configures the self-tuning commit spine (NewAutoTuner).
type AutoTune struct {
	// MaxWindow bounds the transactions in flight between TransactionsTuned
	// and the spine, and so the spine's batch size (0 selects
	// DefaultMaxWindow).
	MaxWindow int
}

// AutoTuner is the one value shared by the two ends of a self-tuning
// spine: TransactionsTuned keeps at most MaxWindow transactions in flight,
// and the MergeTuned spine worker caps its batches at the same number.
// Create one per pipeline (NewAutoTuner) and pass it to both ends.
type AutoTuner struct {
	window int
}

// NewAutoTuner creates the shared bound of one self-tuning pipeline,
// fixed at MaxWindow.
func NewAutoTuner(cfg AutoTune) *AutoTuner {
	if cfg.MaxWindow <= 0 {
		cfg.MaxWindow = DefaultMaxWindow
	}
	return &AutoTuner{window: cfg.MaxWindow}
}

// AutoTunerStats is a point-in-time view of the tuned spine
// (AutoTuner.Stats).
type AutoTunerStats struct {
	// Window is the in-flight bound.
	Window int
	// Grows and Shrinks are always 0: the bound never moves. They remain
	// for callers that report them.
	Grows, Shrinks uint64
}

// Stats snapshots the tuner.
func (a *AutoTuner) Stats() AutoTunerStats {
	return AutoTunerStats{Window: a.window}
}
