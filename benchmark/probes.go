package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sistream/internal/kv"
	"sistream/internal/lsm"
	"sistream/internal/mvcc"
	"sistream/internal/stream"
	"sistream/internal/txn"
)

// The layer probes: one driving goroutine, fixed op counts, nanoseconds
// per operation for the calls the roadmap pins by name. They say what a
// layer costs on its own; the workloads say what that cost does to an
// end-to-end number.

// runProbes runs every probe and returns its metrics under the per-layer
// names. dir receives the lsm probes' data and is emptied again.
func runProbes(seed uint64, sz sizes, dir string) (map[string]value, error) {
	out := map[string]value{}
	unit := map[string]string{}
	for _, d := range perLayer {
		unit[d.Name] = d.Unit
	}
	set := func(name string, v float64, n int) { out[name] = value{Value: v, Unit: unit[name], N: n} }
	n := func(full int) int { return max(full/sz.probeScale, 64) }

	set("stream.hop_ns_per_elem", probeHop(n(1_000_000)), n(1_000_000))
	set("stream.barrier_ns_per_txn", probeBarrier(n(50_000)), n(50_000))

	bare, err := probeWriteCommit(n(3_000), false)
	if err != nil {
		return nil, err
	}
	fed, err := probeWriteCommit(n(3_000), true)
	if err != nil {
		return nil, err
	}
	set("txn.write_commit_ns_per_elem", bare, n(3_000)*100)
	set("txn.write_commit_fed_ns_per_elem", fed, n(3_000)*100)

	install, read := probeMVCC(n(1_000_000))
	set("mvcc.install_ns", install, n(1_000_000))
	set("mvcc.read_ns", read, n(1_000_000))

	mem, err := probeApply(kv.NewMem(), n(3_000), 100, false)
	if err != nil {
		return nil, err
	}
	set("kv.apply_mem_ns_per_op", mem/100, n(3_000)*100)

	lsmDir := filepath.Join(dir, fmt.Sprintf("probe-%d", os.Getpid()))
	defer os.RemoveAll(lsmDir)
	db, err := lsm.Open(filepath.Join(lsmDir, "apply"), lsm.Options{})
	if err != nil {
		return nil, err
	}
	nosync, err := probeApply(db, n(1_000), 100, false)
	if err == nil {
		set("kv.apply_lsm_ns_per_op", nosync/100, n(1_000)*100)
		var synced float64
		if synced, err = probeApply(db, n(100), 64, true); err == nil {
			set("kv.apply_lsm_sync_us", synced/1e3, n(100))
		}
	}
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	// Point reads, Zipf-skewed, with the key set inside the block cache
	// (256 blocks of 4 KiB) and 8x beyond it; then the same reads through
	// the cache(256) tier in front of the store.
	for _, c := range []struct {
		name string
		keys int
	}{{"cached", 8_000}, {"uncached", 64_000}} {
		bareNs, tierNs, err := probeGet(filepath.Join(lsmDir, c.name), seed, c.keys/min(sz.probeScale, 8), n(100_000))
		if err != nil {
			return nil, err
		}
		set("lsm.get_"+c.name+"_ns", bareNs, n(100_000))
		set("lsm.get_cache_tier_"+c.name+"_ns", tierNs, n(100_000))
	}
	return out, nil
}

// probeHop times one edge hop: Source -> Map -> Map -> Discard. The maps
// fuse into the consumer, so an element crosses exactly one channel edge.
func probeHop(elems int) float64 {
	top := stream.New("probe-hop")
	inc := func(t stream.Tuple) stream.Tuple { t.Ts++; return t }
	top.Source("gen", func(emit func(stream.Element)) error {
		for i := 0; i < elems; i++ {
			emit(stream.DataElement(stream.Tuple{Ts: int64(i)}))
		}
		return nil
	}).Map("a", inc).Map("b", inc).Discard()
	start := time.Now()
	_ = top.Run() // no operator of this topology can fail
	return float64(time.Since(start)) / float64(elems)
}

// probeBarrier times lane routing plus the punctuation barrier, with no
// table behind it: Punctuate(8) -> Parallelize(2) -> Merge.
func probeBarrier(txns int) float64 {
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%07d", i)
	}
	top := stream.New("probe-barrier")
	top.Source("gen", func(emit func(stream.Element)) error {
		for i := 0; i < txns*8; i++ {
			emit(stream.DataElement(stream.Tuple{Key: keys[i%len(keys)], Ts: int64(i)}))
		}
		return nil
	}).Punctuate(8).Parallelize(lanes, nil).Merge("merge").Discard()
	start := time.Now()
	_ = top.Run() // no operator of this topology can fail
	return float64(time.Since(start)) / float64(txns)
}

// probeWriteCommit times Protocol.WriteBatch + Commit of 100-tuple
// transactions on a bare mem table, per element. With feed set, a
// 2-partition WatchPartitioned feed is attached and drained to its end
// inside the timed region; what that adds to the bare run is the cost of
// feed routing and delivery.
func probeWriteCommit(txns int, feed bool) (float64, error) {
	ctx := txn.NewContext()
	tbl, err := ctx.CreateTable("probe", kv.NewMem(), txn.TableOptions{})
	if err != nil {
		return 0, err
	}
	if _, err := ctx.CreateGroup("probe", tbl); err != nil {
		return 0, err
	}
	drained := make(chan struct{})
	stop := func() {}
	if feed {
		f, err := tbl.WatchPartitioned(lanes, 0, nil)
		if err != nil {
			return 0, err
		}
		for part, events := range f.Partitions() {
			go func() {
				for range events {
					f.Ack(part)
				}
				drained <- struct{}{}
			}()
		}
		stop = func() {
			f.Stop()
			for range f.Partitions() {
				<-drained
			}
		}
	}
	p := txn.NewSI(ctx)
	value := make([]byte, valueBytes)
	ops := make([]txn.WriteOp, 100)
	keys := make([]string, 10_000)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%07d", i)
	}
	start := time.Now()
	for t := 0; t < txns; t++ {
		for j := range ops {
			ops[j] = txn.WriteOp{Key: keys[(t*100+j)%len(keys)], Value: value}
		}
		tx, err := p.Begin()
		if err != nil {
			return 0, err
		}
		if _, err := p.WriteBatch(tx, tbl, ops); err != nil {
			return 0, err
		}
		if err := p.Commit(tx); err != nil {
			return 0, err
		}
	}
	stop()
	return float64(time.Since(start)) / float64(txns*100), nil
}

// probeMVCC times mvcc.Object.Install (with the oldest active version one
// behind, so full arrays reclaim rather than grow) and Object.Read of the
// newest version.
func probeMVCC(ops int) (install, read float64) {
	objs := make([]*mvcc.Object, 1024)
	for i := range objs {
		objs[i] = mvcc.NewObject(mvcc.DefaultSlots)
	}
	value := make([]byte, valueBytes)
	start := time.Now()
	for i := 0; i < ops; i++ {
		cts := mvcc.Timestamp(i + 1)
		_ = objs[i%len(objs)].Install(cts, value, false, cts-1) // cts only grows, the one thing Install rejects
	}
	install = float64(time.Since(start)) / float64(ops)
	found := 0
	start = time.Now()
	for i := 0; i < ops; i++ {
		if _, ok := objs[i%len(objs)].Read(mvcc.Timestamp(ops)); ok {
			found++
		}
	}
	read = float64(time.Since(start)) / float64(ops)
	if found != ops {
		read = 0 // a probe that read nothing measured nothing
	}
	return install, read
}

// probeApply times Store.Apply of batches of the given size, per call.
// Only Apply itself is inside the timed region.
func probeApply(s kv.Store, calls, size int, sync bool) (float64, error) {
	value := make([]byte, valueBytes)
	var in time.Duration
	for c := 0; c < calls; c++ {
		b := kv.NewBatch(size)
		for j := 0; j < size; j++ {
			b.Put([]byte(fmt.Sprintf("s/probe/k%07d", (c*size+j)%100_000)), value)
		}
		start := time.Now()
		if err := s.Apply(b, sync); err != nil {
			return 0, err
		}
		in += time.Since(start)
	}
	return float64(in) / float64(calls), nil
}

// probeGet loads keys rows of 100 bytes into a fresh lsm store, flushes
// them into sstables, and times Zipf-skewed DB.Get; then the same reads
// through the cache(256) tier.
func probeGet(dir string, seed uint64, keys, reads int) (bare, tier float64, err error) {
	db, err := lsm.Open(dir, lsm.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		if cerr := db.Close(); err == nil {
			err = cerr
		}
	}()
	value := make([]byte, 100)
	name := func(k int) []byte { return []byte(fmt.Sprintf("k%07d", k)) }
	for lo := 0; lo < keys; lo += 1000 {
		b := kv.NewBatch(1000)
		for k := lo; k < min(lo+1000, keys); k++ {
			b.Put(name(k), value)
		}
		if err := db.Apply(b, false); err != nil {
			return 0, 0, err
		}
	}
	if err := db.Flush(); err != nil {
		return 0, 0, err
	}
	z := newZipf(keys, 0.9)
	timeReads := func(s kv.Store) (float64, error) {
		r := rng{s: seed}
		want := make([][]byte, reads)
		for i := range want {
			want[i] = name(z.sample(&r))
		}
		start := time.Now()
		for _, k := range want {
			if _, ok, err := s.Get(k); err != nil || !ok {
				return 0, fmt.Errorf("probe get %s: found=%v err=%v", k, ok, err)
			}
		}
		return float64(time.Since(start)) / float64(reads), nil
	}
	if _, err = timeReads(db); err != nil { // fill the block cache
		return 0, 0, err
	}
	if bare, err = timeReads(db); err != nil {
		return 0, 0, err
	}
	cache := kv.NewCache(db, 256)
	if _, err = timeReads(cache); err != nil { // fill the tier
		return 0, 0, err
	}
	tier, err = timeReads(cache)
	return bare, tier, err
}
