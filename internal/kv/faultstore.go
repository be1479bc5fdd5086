package kv

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// ErrCrashed is returned by every operation on a Fault store after a
// simulated crash (scripted via CrashAtApply/TearApplyAt or triggered
// directly with Crash). Reopen yields a fresh handle over the surviving
// durable image.
var ErrCrashed = errors.New("kv: store crashed (simulated)")

// ErrTornBatch is returned by the Apply that a TearApplyAt script tears:
// only a prefix of the batch's operations reached the durable image and
// the store has crashed. It models a device that persists batches
// sub-atomically — exactly the failure the WAL-record CRC framing of a
// real log exists to mask.
var ErrTornBatch = errors.New("kv: torn batch (simulated)")

// faultVal is one overlay entry: a buffered put, or a buffered delete
// (del set, val nil).
type faultVal struct {
	val []byte
	del bool
}

// FaultStats counts the durability traffic a Fault store has seen. All
// counters are cumulative for the handle (Reopen starts from zero).
type FaultStats struct {
	// Applies counts Apply calls (failed and torn ones included).
	Applies uint64
	// SyncPoints counts durability points: Apply calls with sync=true
	// plus explicit Sync calls.
	SyncPoints uint64
	// SyncFailures counts durability points that returned the scripted
	// sticky sync error.
	SyncFailures uint64
	// InjectedApplyFailures counts Apply calls failed by FailApplyAt.
	InjectedApplyFailures uint64
	// FirstSyncFailure is the wall-clock time of the first scripted sync
	// failure (zero if none happened yet), the start of a
	// time-to-fail-stop measurement.
	FirstSyncFailure time.Time
}

// Fault wraps a Store with programmable fault injection and crash
// simulation, usable against both the in-memory store and the LSM store.
//
// The wrapper splits state into a durable image (the inner store) and a
// volatile overlay (writes not yet covered by a successful durability
// point). Writes applied with sync=false land in the overlay only; a
// successful Apply with sync=true or Sync flushes the overlay plus the
// new batch into the inner store and syncs it. Reads merge the overlay
// over the durable image, so fault-free operation is indistinguishable
// from the wrapped store. A simulated crash drops the overlay — exactly
// the writes an OS page cache would lose — and Reopen hands back a fresh
// store over the durable image alone.
//
// Fault points are scripted before (or during) a run:
//
//   - FailApplyAt(n, err): the nth Apply fails with err, persisting
//     nothing of that batch.
//   - FailSyncAt(n, err): the nth durability point and every later one
//     fail with err (sticky, the fsyncgate shape: once a sync fails the
//     page cache's state is unknowable, so the device never reports
//     success again). The failing batch stays in the volatile overlay.
//   - TearApplyAt(n, keep): the nth Apply persists only its first keep
//     operations durably, then the store crashes (ErrTornBatch).
//   - CrashAtApply(n): the nth Apply crashes the store before persisting
//     anything of that batch (ErrCrashed).
//   - SetLatency(d): every Apply stalls d before doing anything,
//     modeling a slow device (the stall holds the store's mutex, so it
//     backpressures concurrent readers like a saturated device queue).
//
// All methods are safe for concurrent use. A Fault store is a testing
// and benchmarking tool; its Scan materializes the merged view and is
// not meant for hot paths.
type Fault struct {
	mu      sync.Mutex
	inner   Store
	overlay map[string]faultVal

	crashed bool
	closed  bool

	applies    uint64
	syncPoints uint64
	stats      FaultStats

	failApplyAt uint64
	applyErr    error
	failSyncAt  uint64
	syncErr     error
	tearAt      uint64
	tearKeep    int
	crashAt     uint64
	latency     time.Duration
}

// NewFault wraps inner in a fault-injection store. The inner store is the
// durable image; it must not be used directly while the wrapper is live.
func NewFault(inner Store) *Fault {
	return &Fault{inner: inner, overlay: make(map[string]faultVal)}
}

// Capabilities: the wrapper simulates durability over ANY inner store —
// the durable image + volatile overlay make sync points meaningful, and
// Crash/Reopen simulate the process loss — so Durable and SupportsSync
// hold even over the memory store (that is the point of the
// simulation). Persistence follows the inner store.
func (f *Fault) Capabilities() Capabilities {
	return Capabilities{Durable: true, Persistent: CapabilitiesOf(f.inner).Persistent, SupportsSync: true}
}

// FailApplyAt scripts the nth Apply call from now (1-based) to fail with
// err, persisting nothing of that batch. Later Applies succeed again —
// the fault is transient, unlike a sync failure. n <= 0 disarms.
func (f *Fault) FailApplyAt(n int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n <= 0 {
		f.failApplyAt = 0
		return
	}
	f.failApplyAt = f.applies + uint64(n)
	f.applyErr = err
}

// FailSyncAt scripts the nth durability point from now (1-based; an
// Apply with sync=true or a Sync call) and every later one to fail with
// err. The error is sticky by construction: after the first failure the
// durable image's true state is unknowable, so the store keeps refusing
// durability forever (until a crash + Reopen). n <= 0 disarms.
func (f *Fault) FailSyncAt(n int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n <= 0 {
		f.failSyncAt = 0
		return
	}
	f.failSyncAt = f.syncPoints + uint64(n)
	f.syncErr = err
}

// TearApplyAt scripts the nth Apply call from now (1-based) to persist
// only its first keep operations into the durable image and then crash
// the store. n <= 0 disarms.
func (f *Fault) TearApplyAt(n, keep int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n <= 0 {
		f.tearAt = 0
		return
	}
	f.tearAt = f.applies + uint64(n)
	f.tearKeep = keep
}

// CrashAtApply scripts the nth Apply call from now (1-based) to crash
// the store before persisting anything of that batch. n <= 0 disarms.
func (f *Fault) CrashAtApply(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n <= 0 {
		f.crashAt = 0
		return
	}
	f.crashAt = f.applies + uint64(n)
}

// SetLatency makes every subsequent Apply stall d before executing.
func (f *Fault) SetLatency(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.latency = d
}

// Crash simulates a process/machine crash: all writes since the last
// successful durability point are dropped and every subsequent operation
// on this handle returns ErrCrashed. The durable image survives; Reopen
// returns a fresh handle over it.
func (f *Fault) Crash() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashLocked()
}

func (f *Fault) crashLocked() {
	f.crashed = true
	f.overlay = make(map[string]faultVal)
}

// Crashed reports whether the store is in the simulated-crash state.
func (f *Fault) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Reopen returns a fresh Fault handle over the same durable image, as if
// the process restarted and reopened the store: the overlay (lost
// writes) is gone, counters and scripts are reset. The old handle stays
// crashed. Reopen after Close is an error.
func (f *Fault) Reopen() (*Fault, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	f.crashLocked()
	return NewFault(f.inner), nil
}

// Stats returns a snapshot of the durability counters.
func (f *Fault) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.stats
	s.Applies = f.applies
	s.SyncPoints = f.syncPoints
	return s
}

func (f *Fault) checkLocked() error {
	if f.crashed {
		return ErrCrashed
	}
	if f.closed {
		return ErrClosed
	}
	return nil
}

// Get returns the overlay-merged value stored under key.
func (f *Fault) Get(key []byte) ([]byte, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkLocked(); err != nil {
		return nil, false, err
	}
	if v, ok := f.overlay[string(key)]; ok {
		if v.del {
			return nil, false, nil
		}
		return v.val, true, nil
	}
	return f.inner.Get(key)
}

// Put stores value under key. Like the wrapped stores' Put, the write is
// volatile until the next successful durability point.
func (f *Fault) Put(key, value []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkLocked(); err != nil {
		return err
	}
	f.overlay[string(key)] = faultVal{val: cloneBytes(value)}
	return nil
}

// Delete removes key (volatile until the next durability point).
func (f *Fault) Delete(key []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkLocked(); err != nil {
		return err
	}
	f.overlay[string(key)] = faultVal{del: true}
	return nil
}

// Apply atomically applies the batch, honoring any scripted fault. With
// sync=false the batch lands in the volatile overlay; with sync=true the
// overlay and the batch are flushed to the durable image and synced.
func (f *Fault) Apply(b *Batch, sync bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkLocked(); err != nil {
		return err
	}
	if f.latency > 0 {
		time.Sleep(f.latency)
	}
	f.applies++
	switch {
	case f.crashAt != 0 && f.applies >= f.crashAt:
		f.crashLocked()
		return ErrCrashed
	case f.tearAt != 0 && f.applies >= f.tearAt:
		keep := f.tearKeep
		ops := b.Ops()
		if keep > len(ops) {
			keep = len(ops)
		}
		torn := NewBatch(keep)
		for _, op := range ops[:keep] {
			if op.Kind == OpDelete {
				torn.Delete(op.Key)
			} else {
				torn.Put(op.Key, op.Value)
			}
		}
		err := f.inner.Apply(torn, true)
		f.crashLocked()
		if err != nil {
			return fmt.Errorf("%w (and durable image rejected the prefix: %v)", ErrTornBatch, err)
		}
		return ErrTornBatch
	case f.failApplyAt != 0 && f.applies == f.failApplyAt:
		f.stats.InjectedApplyFailures++
		return f.applyErr
	}
	// The batch always reaches the "page cache" (overlay) first; with
	// sync=false that is all an Apply does.
	f.bufferLocked(b)
	if !sync {
		return nil
	}
	f.syncPoints++
	if f.failSyncAt != 0 && f.syncPoints >= f.failSyncAt {
		// Durability failed after the write hit the page cache; callers
		// must treat the batch as not persisted.
		f.noteSyncFailure()
		return f.syncErr
	}
	return f.flushLocked()
}

// Sync flushes all buffered writes to the durable image, honoring a
// scripted sticky sync failure.
func (f *Fault) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkLocked(); err != nil {
		return err
	}
	f.syncPoints++
	if f.failSyncAt != 0 && f.syncPoints >= f.failSyncAt {
		f.noteSyncFailure()
		return f.syncErr
	}
	return f.flushLocked()
}

// Scan calls fn over the overlay-merged view in ascending key order. The
// merged view is materialized first, so fn runs without the store lock.
func (f *Fault) Scan(start, end []byte, fn func(key, value []byte) bool) error {
	f.mu.Lock()
	if err := f.checkLocked(); err != nil {
		f.mu.Unlock()
		return err
	}
	type pair struct{ k, v []byte }
	var merged []pair
	err := f.inner.Scan(start, end, func(k, v []byte) bool {
		if _, shadowed := f.overlay[string(k)]; !shadowed {
			merged = append(merged, pair{k, v})
		}
		return true
	})
	if err != nil {
		f.mu.Unlock()
		return err
	}
	for k, ov := range f.overlay {
		if ov.del {
			continue
		}
		kb := []byte(k)
		if start != nil && bytes.Compare(kb, start) < 0 {
			continue
		}
		if end != nil && bytes.Compare(kb, end) >= 0 {
			continue
		}
		merged = append(merged, pair{kb, ov.val})
	}
	f.mu.Unlock()
	sort.Slice(merged, func(i, j int) bool { return bytes.Compare(merged[i].k, merged[j].k) < 0 })
	for _, p := range merged {
		if !fn(p.k, p.v) {
			return nil
		}
	}
	return nil
}

// Close closes the wrapper and the durable image.
func (f *Fault) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	f.closed = true
	f.overlay = make(map[string]faultVal)
	return f.inner.Close()
}

// bufferLocked stages the batch's operations in the volatile overlay.
func (f *Fault) bufferLocked(b *Batch) {
	for _, op := range b.Ops() {
		if op.Kind == OpDelete {
			f.overlay[string(op.Key)] = faultVal{del: true}
		} else {
			// Values follow the Owned contract (immutable after hand-off)
			// and may be retained by reference; keys are copied by the
			// string conversion because the commit path reuses its key
			// arena across batches.
			f.overlay[string(op.Key)] = faultVal{val: op.Value}
		}
	}
}

// flushLocked pushes the overlay into the durable image as one synced
// inner Apply (the overlay holds at most one entry per key, so ordering
// among its entries is irrelevant).
func (f *Fault) flushLocked() error {
	if len(f.overlay) == 0 {
		return f.inner.Sync()
	}
	out := NewBatch(len(f.overlay))
	for k, ov := range f.overlay {
		if ov.del {
			out.Delete([]byte(k))
		} else {
			out.PutOwned([]byte(k), ov.val)
		}
	}
	if err := f.inner.Apply(out, true); err != nil {
		return err
	}
	f.overlay = make(map[string]faultVal)
	return nil
}

func (f *Fault) noteSyncFailure() {
	f.stats.SyncFailures++
	if f.stats.FirstSyncFailure.IsZero() {
		f.stats.FirstSyncFailure = time.Now()
	}
}
