package txn

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"sistream/internal/mvcc"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// objectOf returns the version object of key in tbl, nil when the table
// has no row for it. create inserts a missing row, under the group commit
// latch as the row index requires.
func objectOf(tbl *Table, key string, create bool) *mvcc.Object {
	if !create {
		if r := tbl.lookup(key); r != nil {
			return r.obj
		}
		return nil
	}
	g := tbl.Group()
	g.commitMu.Lock()
	defer g.commitMu.Unlock()
	return tbl.row(keyHash(key), key).obj
}

// hammer is the reusable concurrency-test harness: it runs worker loops
// from many goroutines until stopped, funnels failures through t.Error
// (test-safe from any goroutine), and joins everything on finish. The
// ad-hoc stop-channel/WaitGroup loops of the concurrency tests are all
// expressed through it, as is the -race stress test below.
type hammer struct {
	t    testing.TB
	stop chan struct{}
	wg   sync.WaitGroup
}

func newHammer(t testing.TB) *hammer {
	h := &hammer{t: t, stop: make(chan struct{})}
	t.Cleanup(h.finish) // idempotent safety net
	return h
}

// stopped reports whether finish has been called; worker loops poll it.
func (h *hammer) stopped() bool {
	select {
	case <-h.stop:
		return true
	default:
		return false
	}
}

// spawn starts n goroutines, each looping body(id) until the hammer stops
// or body returns false (worker gives up; it must have reported its own
// failure). id is unique per worker across all spawn calls... not quite:
// id is the index within this spawn call.
func (h *hammer) spawn(n int, body func(id int) bool) {
	for i := 0; i < n; i++ {
		h.wg.Add(1)
		go func(id int) {
			defer h.wg.Done()
			for !h.stopped() {
				if !body(id) {
					return
				}
			}
		}(i)
	}
}

// run starts one goroutine executing body exactly once (setup-style
// worker that manages its own loop).
func (h *hammer) run(body func()) {
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		body()
	}()
}

// finish stops all workers and waits for them. Safe to call repeatedly.
func (h *hammer) finish() {
	select {
	case <-h.stop:
	default:
		close(h.stop)
	}
	h.wg.Wait()
}

// stressWorkers sizes the stress hammer: enough goroutines to
// oversubscribe every core so the scheduler interleaves aggressively.
func stressWorkers() int {
	w := 4 * runtime.GOMAXPROCS(0)
	if w < 8 {
		w = 8
	}
	return w
}

// TestStressCommitPipeline hammers Begin/Write/Commit/SnapshotScan from
// oversubscribed goroutines for ~2 seconds, checking SI's invariants the
// whole time:
//
//   - multi-state atomicity: the "seq" key is always written to both
//     tables in one transaction; any committed snapshot read must see
//     equal values,
//   - no lost updates: each writer counts its committed increments of a
//     private key and the final value must match exactly,
//   - snapshot scans run against a pinned timestamp and must see the seq
//     pair consistently too.
//
// Run it under -race (CI does); it is skipped with -short.
func TestStressCommitPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("stress hammer skipped in -short mode")
	}
	e := newEnv(t)
	p := NewSI(e.ctx)

	// Seed the invariant pair and the per-writer counters.
	seed, _ := p.Begin()
	if err := p.Write(seed, e.t1, "seq", encodeU64(0)); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(seed, e.t2, "seq", encodeU64(0)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, p, seed)

	workers := stressWorkers()
	writers := workers / 4
	if writers < 2 {
		writers = 2
	}
	committed := make([]uint64, writers)

	h := newHammer(t)

	// Writers: bump the shared seq pair (FCW conflicts expected, retried)
	// and a private per-writer counter in the same transaction.
	for w := 0; w < writers; w++ {
		w := w
		key := "w" + string(rune('a'+w%26)) + encodeKeySuffix(w)
		h.run(func() {
			for !h.stopped() {
				tx, err := p.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				v, _, err := p.Read(tx, e.t1, "seq")
				if err != nil {
					t.Error(err)
					return
				}
				next := encodeU64(decodeU64(v) + 1)
				ok := p.Write(tx, e.t1, "seq", next) == nil &&
					p.Write(tx, e.t2, "seq", next) == nil &&
					p.Write(tx, e.t1, key, encodeU64(committed[w]+1)) == nil
				if !ok {
					t.Error("buffered write failed")
					return
				}
				if err := p.Commit(tx); err != nil {
					if IsAbort(err) {
						continue // FCW loss; retry
					}
					t.Error(err)
					return
				}
				committed[w]++
			}
		})
	}

	// Readers: one read-only transaction over both states; committed
	// snapshots must agree on seq.
	h.spawn(workers/2, func(int) bool {
		tx, err := p.BeginReadOnly()
		if err != nil {
			h.t.Error(err)
			return false
		}
		v1, ok1, err1 := p.Read(tx, e.t1, "seq")
		v2, ok2, err2 := p.Read(tx, e.t2, "seq")
		if err1 != nil || err2 != nil {
			h.t.Errorf("snapshot read: %v %v", err1, err2)
			return false
		}
		a, b := decodeU64(v1), decodeU64(v2)
		if err := p.Commit(tx); err != nil {
			h.t.Errorf("read-only commit: %v", err)
			return false
		}
		if !ok1 || !ok2 || a != b {
			h.t.Errorf("torn multi-state snapshot: %d vs %d", a, b)
			return false
		}
		return true
	})

	// Scanners: full snapshot scans at a pinned timestamp, checking the
	// seq pair through the scan as well.
	h.spawn(workers-writers-workers/2, func(int) bool {
		tx, err := p.BeginReadOnly()
		if err != nil {
			h.t.Error(err)
			return false
		}
		tx.mu.Lock()
		rts := tx.pin(e.t1)
		tx.mu.Unlock()
		var seqSeen []byte
		e.t1.SnapshotScan(rts, func(key string, value []byte) bool {
			if key == "seq" {
				seqSeen = append([]byte(nil), value...)
			}
			return true
		})
		if v2, ok := e.t2.ReadAt("seq", rts); ok && seqSeen != nil {
			if decodeU64(seqSeen) != decodeU64(v2) {
				h.t.Errorf("scan saw torn pair: %d vs %d", decodeU64(seqSeen), decodeU64(v2))
				return false
			}
		}
		return p.Commit(tx) == nil
	})

	time.Sleep(2 * time.Second)
	h.finish()

	// No lost updates: every writer's private counter holds exactly its
	// committed increment count.
	for w := 0; w < writers; w++ {
		key := "w" + string(rune('a'+w%26)) + encodeKeySuffix(w)
		v, ok := readOne(t, p, e.t1, key)
		if committed[w] == 0 {
			continue
		}
		if !ok || decodeU64([]byte(v)) != committed[w] {
			t.Fatalf("writer %d: counter %d, want %d", w, decodeU64([]byte(v)), committed[w])
		}
	}
	t.Logf("stress: %d workers, per-writer commits %v", workers, committed)
}

func encodeKeySuffix(w int) string {
	return string(rune('0'+w/10)) + string(rune('0'+w%10))
}
