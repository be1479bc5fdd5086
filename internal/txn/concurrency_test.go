package txn

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// protocolsUnderTest builds one instance of each protocol over a fresh
// environment.
func protocolsUnderTest(t *testing.T) map[string]func(e *env) Protocol {
	t.Helper()
	return map[string]func(e *env) Protocol{
		"mvcc": func(e *env) Protocol { return NewSI(e.ctx) },
		"s2pl": func(e *env) Protocol { return NewS2PL(e.ctx) },
		"bocc": func(e *env) Protocol { return NewBOCC(e.ctx) },
	}
}

// TestNoTornMultiStateReads is the paper's central consistency claim
// under concurrency, checked for all three protocols: one writer keeps
// both states of a group at an identical sequence number; readers must
// never successfully observe two different numbers.
func TestNoTornMultiStateReads(t *testing.T) {
	for name, mk := range protocolsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			e := newEnv(t)
			p := mk(e)

			// Seed.
			seedTx, _ := p.Begin()
			p.Write(seedTx, e.t1, "seq", encodeU64(0))
			p.Write(seedTx, e.t2, "seq", encodeU64(0))
			mustCommit(t, p, seedTx)

			var torn, committedReads, abortedReads int64
			var mu sync.Mutex

			h := newHammer(t)
			h.spawn(4, func(int) bool {
				tx, err := p.BeginReadOnly()
				if err != nil {
					t.Error(err)
					return false
				}
				v1, ok1, err1 := p.Read(tx, e.t1, "seq")
				if err1 != nil {
					p.Abort(tx)
					return true
				}
				v2, ok2, err2 := p.Read(tx, e.t2, "seq")
				if err2 != nil {
					p.Abort(tx)
					return true
				}
				a := append([]byte(nil), v1...)
				b := append([]byte(nil), v2...)
				err = p.Commit(tx)
				mu.Lock()
				if err == nil {
					committedReads++
					if !ok1 || !ok2 || decodeU64(a) != decodeU64(b) {
						torn++
					}
				} else if IsAbort(err) {
					abortedReads++
				} else {
					t.Error(err)
				}
				mu.Unlock()
				return true
			})

			// Writer: monotonically bump both states in one transaction.
			// Run until the readers have demonstrably made progress (the
			// single-CPU scheduler can otherwise starve them), with a
			// hard cap as a safety net.
			deadline := time.Now().Add(5 * time.Second)
			for seq := uint64(1); ; seq++ {
				for {
					tx, err := p.Begin()
					if err != nil {
						t.Fatal(err)
					}
					if err := p.Write(tx, e.t1, "seq", encodeU64(seq)); err != nil {
						if IsAbort(err) {
							continue
						}
						t.Fatal(err)
					}
					if err := p.Write(tx, e.t2, "seq", encodeU64(seq)); err != nil {
						if IsAbort(err) {
							continue
						}
						t.Fatal(err)
					}
					if err := p.Commit(tx); err != nil {
						if IsAbort(err) {
							continue
						}
						t.Fatal(err)
					}
					break
				}
				if seq%16 == 0 {
					time.Sleep(time.Millisecond) // let readers run
					mu.Lock()
					done := committedReads >= 50
					mu.Unlock()
					if (seq >= 300 && done) || time.Now().After(deadline) {
						break
					}
				}
			}
			h.finish()

			if torn > 0 {
				t.Fatalf("%d torn multi-state reads (of %d committed)", torn, committedReads)
			}
			if committedReads == 0 {
				t.Fatal("no reader ever committed; test proved nothing")
			}
			t.Logf("%s: %d committed reads, %d aborted reads", name, committedReads, abortedReads)
		})
	}
}

// TestSIReadersNeverAbortNeverBlock checks SI's headline property: with a
// single writer, concurrent snapshot readers always commit (no aborts),
// unlike S2PL/BOCC.
func TestSIReadersNeverAbortNeverBlock(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	seedTx, _ := p.Begin()
	p.Write(seedTx, e.t1, "k", []byte("0"))
	mustCommit(t, p, seedTx)

	h := newHammer(t)
	h.spawn(4, func(int) bool {
		tx, err := p.BeginReadOnly()
		if err != nil {
			t.Error(err)
			return false
		}
		if _, _, err := p.Read(tx, e.t1, "k"); err != nil {
			t.Errorf("SI reader hit error: %v", err)
			return false
		}
		if err := p.Commit(tx); err != nil {
			t.Errorf("SI reader aborted: %v", err)
			return false
		}
		return true
	})
	for i := 0; i < 500; i++ {
		write(t, p, e.t1, "k", "v")
	}
	h.finish()
}

// TestConcurrentCommitStateCoordination drives the consistency protocol
// from two goroutines per transaction — the stream scenario where each
// TO_TABLE operator independently flags its state. Exactly one becomes
// the coordinator; the commit must be atomic and exactly-once.
func TestConcurrentCommitStateCoordination(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	for round := 0; round < 200; round++ {
		tx, err := p.Begin()
		if err != nil {
			t.Fatal(err)
		}
		val := encodeU64(uint64(round))
		if err := p.Write(tx, e.t1, "k", val); err != nil {
			t.Fatal(err)
		}
		if err := p.Write(tx, e.t2, "k", val); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i, tbl := range []*Table{e.t1, e.t2} {
			wg.Add(1)
			go func(i int, tbl *Table) {
				defer wg.Done()
				errs[i] = p.CommitState(tx, tbl)
			}(i, tbl)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d: CommitState[%d]: %v", round, i, err)
			}
		}
		v1, ok := readOne(t, p, e.t1, "k")
		if !ok || decodeU64([]byte(v1)) != uint64(round) {
			t.Fatalf("round %d: state1 = %q %v", round, v1, ok)
		}
	}
}

// TestMixedWritersAllProtocols: several read-modify-write workers per
// protocol must never lose an update.
func TestMixedWritersAllProtocols(t *testing.T) {
	for name, mk := range protocolsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			e := newEnv(t)
			p := mk(e)
			seedTx, _ := p.Begin()
			p.Write(seedTx, e.t1, "ctr", encodeU64(0))
			mustCommit(t, p, seedTx)

			const workers, per = 3, 30
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						for {
							tx, err := p.Begin()
							if err != nil {
								t.Error(err)
								return
							}
							v, _, err := p.Read(tx, e.t1, "ctr")
							if err != nil {
								if IsAbort(err) {
									continue
								}
								t.Error(err)
								return
							}
							n := decodeU64(v)
							if err := p.Write(tx, e.t1, "ctr", encodeU64(n+1)); err != nil {
								if IsAbort(err) {
									continue
								}
								t.Error(err)
								return
							}
							if err := p.Commit(tx); err != nil {
								if IsAbort(err) {
									continue
								}
								t.Error(err)
								return
							}
							break
						}
					}
				}()
			}
			wg.Wait()
			v, _ := readOne(t, p, e.t1, "ctr")
			if decodeU64([]byte(v)) != workers*per {
				t.Fatalf("counter = %d, want %d", decodeU64([]byte(v)), workers*per)
			}
		})
	}
}

// TestHotKeyChurnWithPinnedReaders stresses GC: long-lived pinned readers
// coexist with a hot-key writer; snapshots must stay intact.
func TestHotKeyChurnWithPinnedReaders(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	write(t, p, e.t1, "hot", "init")

	h := newHammer(t)
	var iter atomic.Int64
	h.spawn(3, func(int) bool {
		tx, err := p.BeginReadOnly()
		if err != nil {
			t.Error(err)
			return false
		}
		v1, ok, err := p.Read(tx, e.t1, "hot")
		if err != nil || !ok {
			t.Errorf("first read: %v %v", ok, err)
			return false
		}
		first := append([]byte(nil), v1...)
		// Hold the snapshot a while, then re-read: must be identical.
		time.Sleep(time.Duration(iter.Add(1)%3) * time.Millisecond)
		v2, ok, err := p.Read(tx, e.t1, "hot")
		if err != nil || !ok {
			t.Errorf("re-read: %v %v", ok, err)
			return false
		}
		if string(first) != string(v2) {
			t.Errorf("snapshot drifted: %q -> %q", first, v2)
			return false
		}
		if err := p.Commit(tx); err != nil {
			t.Error(err)
			return false
		}
		return true
	})
	for i := 0; i < 2000; i++ {
		// Retry loop: with pinned reader snapshots holding the GC horizon
		// back, a hot key's version array can fill up; the writer then
		// aborts by design and retries once readers release their pins.
		for {
			tx, err := p.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Write(tx, e.t1, "hot", encodeU64(uint64(i))); err != nil {
				t.Fatal(err)
			}
			err = p.Commit(tx)
			if err == nil {
				break
			}
			if !IsAbort(err) {
				t.Fatal(err)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	h.finish()
}

func encodeU64(v uint64) []byte {
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, v)
	return out
}

func decodeU64(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// slotValue is value number seq of TestStressInPlaceSlotReuse: n >= 12
// bytes carrying seq, n itself and a filler derived from both, so a value
// stitched from two versions — one's data, the other's length — shows.
func slotValue(seq uint64, n int) []byte {
	v := make([]byte, n)
	binary.LittleEndian.PutUint64(v, seq)
	binary.LittleEndian.PutUint32(v[8:], uint32(n))
	for i := 12; i < n; i++ {
		v[i] = byte(seq) ^ byte(i)
	}
	return v
}

// slotSeq returns the sequence number a slotValue carries; ok is false
// when v is not one whole slotValue.
func slotSeq(v []byte) (seq uint64, ok bool) {
	if len(v) < 12 || binary.LittleEndian.Uint32(v[8:]) != uint32(len(v)) {
		return 0, false
	}
	seq = binary.LittleEndian.Uint64(v)
	for i := 12; i < len(v); i++ {
		if v[i] != byte(seq)^byte(i) {
			return 0, false
		}
	}
	return seq, true
}

// TestStressInPlaceSlotReuse races every kind of reader against one
// writer whose rewrites of 4 hot keys keep reusing those rows' version
// slots in place — with values of varying length, each carrying its
// sequence number and length — and against a Table.GC loop freeing slots.
// Every value any reader returns must be whole. Pinned readers — SI
// transactions, Snapshot.ScanStripe and Snapshot.Lookup — must return
// exactly the version the writer's history says was current at their
// snapshot; unpinned ones — BOCC reads at Infinity and Table.ReadAt at
// an older commit — some whole version. Run it under -race (CI does).
func TestStressInPlaceSlotReuse(t *testing.T) {
	e := newEnv(t)
	si, bocc := NewSI(e.ctx), NewBOCC(e.ctx)
	keys := []string{"hot0", "hot1", "hot2", "hot3"}
	parity := func(_ string, v []byte) (string, bool) {
		seq, ok := slotSeq(v)
		return [...]string{"even", "odd"}[seq%2], ok
	}
	ix, err := e.t1.CreateIndex("parity", parity)
	if err != nil {
		t.Fatal(err)
	}

	// history[k] is key k's versions, (cts, seq) in commit order; a
	// pinned reader's observation is checked against it at the end.
	type version struct {
		cts Timestamp
		seq uint64
	}
	type seen struct {
		key int
		rts Timestamp
		seq uint64
		ok  bool
	}
	var (
		mu      sync.Mutex
		history = make([][]version, len(keys))
		commits atomic.Uint64
		reads   [5]atomic.Uint64 // per reader kind
	)
	const keep = 20_000 // observations kept per pinned reader
	whole := func(kind int, v []byte, ok bool) (uint64, bool) {
		reads[kind].Add(1)
		if !ok {
			return 0, false
		}
		seq, whole := slotSeq(v)
		if !whole {
			t.Errorf("reader %d returned a torn value: len %d, %x", kind, len(v), v[:min(len(v), 16)])
		}
		return seq, true
	}

	h := newHammer(t)
	h.run(func() {
		rng := newRand(1)
		for seq := uint64(1); !h.stopped(); {
			tx, err := si.Begin()
			if err != nil {
				t.Error(err)
				return
			}
			first := seq
			for _, k := range keys {
				if err := si.Write(tx, e.t1, k, slotValue(seq, 12+rng.Intn(200))); err != nil {
					t.Error(err)
					return
				}
				seq++
			}
			if err := si.Commit(tx); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			for i, k := range keys {
				history[i] = append(history[i], version{objectOf(e.t1, k, false).LatestCTS(), first + uint64(i)})
			}
			mu.Unlock()
			commits.Add(1)
		}
	})
	var reclaimed atomic.Uint64
	h.spawn(1, func(int) bool {
		reclaimed.Add(uint64(e.t1.GC()))
		return true
	})

	var pinnedSeen [3][]seen
	observe := func(kind, key int, rts Timestamp, seq uint64, ok bool) {
		if len(pinnedSeen[kind]) < keep {
			pinnedSeen[kind] = append(pinnedSeen[kind], seen{key, rts, seq, ok})
		}
	}
	// SI transactions read every key at their pinned snapshot.
	h.spawn(1, func(int) bool {
		tx, err := si.BeginReadOnly()
		if err != nil {
			t.Error(err)
			return false
		}
		tx.mu.Lock()
		rts := tx.pin(e.t1)
		tx.mu.Unlock()
		for i, k := range keys {
			v, ok, err := si.Read(tx, e.t1, k)
			if err != nil {
				t.Error(err)
				return false
			}
			seq, ok := whole(0, v, ok)
			observe(0, i, rts, seq, ok)
		}
		return si.Commit(tx) == nil
	})
	// Two stripes and two index lookups under one snapshot each: each key
	// present at the snapshot shows up exactly once.
	index := map[string]int{}
	for i, k := range keys {
		index[k] = i
	}
	collect := func(kind int, read func(snap *Snapshot, i int, fn func(string, []byte) bool) error) func(int) bool {
		return func(int) bool {
			snap, err := e.ctx.Snapshot(e.t1)
			if err != nil {
				t.Error(err)
				return false
			}
			defer snap.Release()
			found := make([]bool, len(keys))
			for i := range 2 {
				if err := read(snap, i, func(k string, v []byte) bool {
					seq, ok := whole(kind, v, true)
					if found[index[k]] {
						t.Errorf("reader %d saw %s twice at %d", kind, k, snap.CTS())
					}
					found[index[k]] = true
					observe(kind, index[k], snap.CTS(), seq, ok)
					return true
				}); err != nil {
					t.Error(err)
					return false
				}
			}
			for i, f := range found {
				if !f {
					observe(kind, i, snap.CTS(), 0, false)
				}
			}
			return true
		}
	}
	h.spawn(1, collect(1, func(snap *Snapshot, i int, fn func(string, []byte) bool) error {
		return snap.ScanStripe(e.t1, i, 2, fn)
	}))
	h.spawn(1, collect(2, func(snap *Snapshot, i int, fn func(string, []byte) bool) error {
		ikey := [...]string{"even", "odd"}[i]
		return snap.Lookup(ix, ikey, func(k string, v []byte) bool {
			if got, _ := parity(k, v); got != ikey {
				t.Errorf("Lookup(%s) returned %s with a %s value", ikey, k, got)
			}
			return fn(k, v)
		})
	}))
	// Unpinned: BOCC at Infinity, and ReadAt a few commits back — no pin
	// protects what it reads there, so it races the slots' reuse head on.
	h.spawn(1, func(int) bool {
		tx, err := bocc.BeginReadOnly()
		if err != nil {
			t.Error(err)
			return false
		}
		for _, k := range keys {
			v, ok, err := bocc.Read(tx, e.t1, k)
			if err != nil {
				t.Error(err)
				return false
			}
			whole(3, v, ok)
		}
		_ = bocc.Abort(tx)
		return true
	})
	lag := newRand(2)
	h.spawn(1, func(int) bool {
		rts := e.group.LastCTS() - Timestamp(lag.Intn(3*len(keys)))
		for _, k := range keys {
			v, ok := e.t1.ReadAt(k, rts)
			whole(4, v, ok)
		}
		return true
	})

	d := time.Second
	if testing.Short() {
		d = 200 * time.Millisecond
	}
	time.Sleep(d)
	h.finish()

	for kind, obs := range pinnedSeen {
		for _, o := range obs {
			var want version
			for _, w := range history[o.key] {
				if w.cts <= o.rts {
					want = w
				}
			}
			if o.ok != (want.cts != 0) || o.seq != want.seq {
				t.Fatalf("reader %d at %d read %s as seq %d (present %v); the history has seq %d from cts %d",
					kind, o.rts, keys[o.key], o.seq, o.ok, want.seq, want.cts)
			}
		}
	}
	for kind := range reads {
		if reads[kind].Load() == 0 {
			t.Fatalf("reader %d never read", kind)
		}
	}
	if commits.Load() == 0 || reclaimed.Load() == 0 {
		t.Fatalf("%d commits, %d slots reclaimed: the race never ran", commits.Load(), reclaimed.Load())
	}
	t.Logf("%d commits, reads per kind %v, %d slots reclaimed by sweeps, hot-key capacity %d",
		commits.Load(), []uint64{reads[0].Load(), reads[1].Load(), reads[2].Load(), reads[3].Load(), reads[4].Load()},
		reclaimed.Load(), objectOf(e.t1, keys[0], false).Capacity())
}
