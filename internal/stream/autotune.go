package stream

// Self-tuning commit spine. A static TransactionsWindow(n) + MergeBatched(n)
// pair holds out for batches of n; the tuned pair is WORK-CONSERVING: the
// window is only an in-flight (backpressure) bound, fixed at MaxWindow, and
// the spine worker never waits — each batch is whatever boundaries queued
// while the previous batch was committing. Fan-in follows the store by
// itself: ~1 while commits keep up with boundary production, rising toward
// the bound as they lag. The one decision left is the LatencyBound guard.
//
// The bound changes BATCHING GEOMETRY only: which transactions commit and
// which abort is identical to any static window (the transactions ride one
// txn.Chain either way) — pinned by TestPropertyAdaptiveEquivalence.

import (
	"sync/atomic"
	"time"
)

// Defaults for zero-valued AutoTune fields.
const (
	// DefaultMaxWindow is the in-flight transaction bound of a tuned spine.
	DefaultMaxWindow = 64
	// DefaultLatencyBound is the per-batch decision-latency ceiling: a
	// batch whose commit work exceeds it halves the in-flight bound.
	DefaultLatencyBound = 25 * time.Millisecond
)

// calmBatches is how many consecutive batches must commit in under half
// the LatencyBound before a halved in-flight bound doubles back.
const calmBatches = 8

// AutoTune configures the self-tuning commit spine (NewAutoTuner). The
// zero value of every field selects its default.
type AutoTune struct {
	// MaxWindow bounds the transactions in flight between TransactionsTuned
	// and the spine, and so the spine's batch size (default
	// DefaultMaxWindow).
	MaxWindow int
	// LatencyBound is the per-batch commit latency above which the
	// in-flight bound is halved, as long as batches are big enough for
	// that to shorten them (default DefaultLatencyBound).
	LatencyBound time.Duration
}

// AutoTuner is the shared state between the two ends of a self-tuning
// spine: TransactionsTuned reads the in-flight bound at every transaction
// begin, the MergeTuned spine worker caps its batches at it and reports
// every commit run's latency back. Create one per pipeline (NewAutoTuner)
// and pass it to both ends.
type AutoTuner struct {
	cfg AutoTune

	window atomic.Int64 // current in-flight bound; read by TransactionsTuned

	grows   atomic.Uint64
	shrinks atomic.Uint64
	txns    atomic.Uint64 // transactions over batches is the mean fan-in
	batches atomic.Uint64

	calm int // consecutive batches under LatencyBound/2; spine-worker owned
}

// NewAutoTuner creates the shared state of one self-tuning pipeline, with
// the in-flight bound at MaxWindow.
func NewAutoTuner(cfg AutoTune) *AutoTuner {
	if cfg.MaxWindow <= 0 {
		cfg.MaxWindow = DefaultMaxWindow
	}
	if cfg.LatencyBound <= 0 {
		cfg.LatencyBound = DefaultLatencyBound
	}
	a := &AutoTuner{cfg: cfg}
	a.window.Store(int64(cfg.MaxWindow))
	return a
}

// Window returns the current in-flight bound, in [1, MaxWindow]: MaxWindow
// unless the latency guard has tightened it. TransactionsTuned consults it
// at every BOT, so a change takes effect on the next transaction —
// in-flight ones are never disturbed.
func (a *AutoTuner) Window() int { return int(a.window.Load()) }

// AutoTunerStats is a point-in-time view of the tuned spine
// (AutoTuner.Stats).
type AutoTunerStats struct {
	// Window is the current in-flight bound.
	Window int
	// Shrinks counts halvings by the latency guard, Grows the doublings
	// back toward MaxWindow; both stay 0 while no batch exceeds
	// LatencyBound.
	Grows, Shrinks uint64
}

// Stats snapshots the tuner.
func (a *AutoTuner) Stats() AutoTunerStats {
	return AutoTunerStats{Window: a.Window(), Grows: a.grows.Load(), Shrinks: a.shrinks.Load()}
}

// meanFanIn is the mean number of transactions per commit run so far.
func (a *AutoTuner) meanFanIn() float64 {
	b := a.batches.Load()
	if b == 0 {
		return 0
	}
	return float64(a.txns.Load()) / float64(b)
}

// observeBatch feeds one timed commit run (n transactions decided in d)
// into the latency guard: a run over LatencyBound halves the in-flight
// bound — if it was larger than the halved bound allows, else halving buys
// nothing (a store stall under a small batch is not the window's doing) —
// and calmBatches consecutive runs under half of LatencyBound double it
// back. Spine-worker goroutine only.
func (a *AutoTuner) observeBatch(n int, d time.Duration) {
	a.txns.Add(uint64(n))
	a.batches.Add(1)
	w := a.Window()
	switch {
	case d > a.cfg.LatencyBound:
		a.calm = 0
		if n > w/2 && w > 1 {
			a.window.Store(int64(w / 2))
			a.shrinks.Add(1)
		}
	case d >= a.cfg.LatencyBound/2:
		a.calm = 0
	default:
		if a.calm++; a.calm >= calmBatches && w < a.cfg.MaxWindow {
			a.calm = 0
			a.window.Store(int64(min(2*w, a.cfg.MaxWindow)))
			a.grows.Add(1)
		}
	}
}
