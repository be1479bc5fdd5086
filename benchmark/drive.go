package main

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"sistream/internal/stream"
	"sistream/internal/txn"
)

// violations collects correctness failures seen while a workload runs;
// any entry makes the command exit non-zero.
type violations struct {
	mu   sync.Mutex
	list []string
}

func (v *violations) add(format string, a ...any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.list) < 20 {
		v.list = append(v.list, fmt.Sprintf(format, a...))
	}
}

// samples are timed observations: when each was taken (offset from the
// run's epoch) and its duration, both in nanoseconds.
type samples struct{ at, dur []int64 }

func (s *samples) add(at, dur int64) {
	s.at = append(s.at, at)
	s.dur = append(s.dur, dur)
}

// source generates the workload's elements inside the topology's source
// goroutine: closed loop (emit as fast as the spine accepts) or open loop
// (one transaction's tuples at each tick of a fixed schedule).
type source struct {
	g    *rig
	plan runPlan

	emitted uint64   // elements emitted; read after the run
	last    []uint64 // per key index: sequence number of its last write
	lag     samples  // open loop: how late each transaction was sent
}

func newSource(g *rig) *source {
	s := &source{g: g, last: make([]uint64, len(g.in.keys))}
	for i := range s.last {
		s.last[i] = preloadSeq
	}
	return s
}

func (s *source) run(emit func(stream.Element)) error {
	sp, in, epoch := s.g.spec, s.g.in, s.g.epoch
	// Keep sending a little past the window, so its last slice ends while
	// the spine is still fed.
	end := int64(s.plan.warm + s.plan.measure + s.plan.slice/10)
	var period int64
	if sp.rate > 0 {
		period = int64(time.Second) * int64(sp.txn) / int64(sp.rate)
	}
	for n := int64(0); ; n++ {
		now := int64(time.Since(epoch))
		stamp := now
		if period > 0 {
			stamp = n * period // the transaction's due time
		}
		if s.plan.fixedWork() {
			if s.emitted >= s.plan.elems {
				return nil
			}
		} else if stamp >= end {
			return nil
		}
		if period == 0 {
			if err := s.takeSlot(); err != nil {
				return err
			}
			stamp = int64(time.Since(epoch))
		} else {
			for now < stamp {
				time.Sleep(time.Duration(stamp - now))
				now = int64(time.Since(epoch))
			}
			s.lag.add(now, now-stamp)
		}
		for j := 0; j < sp.txn; j++ {
			key, value := in.next(stamp)
			s.last[key] = s.emitted
			emit(stream.DataElement(stream.Tuple{Key: in.keys[key], Value: value, Ts: int64(s.emitted)}))
			s.emitted++
		}
		if s.g.tr != nil {
			s.g.tr.emitted(now, int64(time.Since(epoch)))
		}
	}
}

// takeSlot blocks until fewer than spec.open transactions are outstanding.
// A sink that stays silent for ten seconds has lost a transaction: fail
// the run rather than hang it.
func (s *source) takeSlot() error {
	select {
	case s.g.slots <- struct{}{}:
		return nil
	default:
	}
	stuck := time.NewTimer(10 * time.Second)
	defer stuck.Stop()
	select {
	case s.g.slots <- struct{}{}:
		return nil
	case <-stuck.C:
		return fmt.Errorf("no transaction completed at the sink for 10s with %d outstanding", cap(s.g.slots))
	}
}

// sink consumes the topology's last stream. Elements reach it after their
// transaction committed: behind TO_TABLE on the sequential spine, behind
// the change feed's downstream barrier on the pipelines. It accounts for
// every event by sequence number and times one event per transaction (all
// of them in an open loop) from its stamp to the transaction's COMMIT.
type sink struct {
	g    *rig
	plan runPlan

	delivered atomic.Int64 // data elements of committed transactions

	seen    []uint64 // bitset over sequence numbers
	dups    int64
	commits int64
	pending int64
	stamps  []int64 // stamps of the current transaction's timed events
	seqs    []uint64
	lat     samples
	late    int64

	lastCTS int64
	ctsBack atomic.Int64 // commit timestamps that went backwards
	laneCTS [lanes]int64
}

func newSink(g *rig) *sink { return &sink{g: g} }

func (k *sink) on(e stream.Element) {
	switch e.Kind {
	case stream.KindData:
		if len(e.Tuple.Value) != valueBytes {
			k.g.bad.add("sink: value of %d bytes for key %q", len(e.Tuple.Value), e.Tuple.Key)
			return
		}
		seq := valueSeq(e.Tuple.Value)
		word, bit := seq/64, uint64(1)<<(seq%64)
		for uint64(len(k.seen)) <= word {
			k.seen = append(k.seen, make([]uint64, len(k.seen)+1024)...)
		}
		if k.seen[word]&bit != 0 {
			k.dups++
		}
		k.seen[word] |= bit
		k.pending++
		if k.g.spec.rate > 0 || seq%uint64(k.g.spec.txn) == 0 {
			k.stamps = append(k.stamps, valueStamp(e.Tuple.Value))
			if k.g.tr != nil {
				k.seqs = append(k.seqs, seq)
			}
		}
	case stream.KindCommit:
		now := int64(time.Since(k.g.epoch))
		for i, stamp := range k.stamps {
			d := now - stamp
			if k.g.spec.rate > 0 && d > int64(lateLimit) {
				k.late++
			}
			if k.plan.fixedWork() || (now >= int64(k.plan.warm) && now < int64(k.plan.warm+k.plan.measure)) {
				k.lat.add(now, d)
			}
			if k.g.tr != nil && k.g.feed != nil {
				k.g.tr.arrived(k.seqs[i], uint64(e.Tuple.Ts), stamp, now)
			}
		}
		k.stamps, k.seqs = k.stamps[:0], k.seqs[:0]
		if k.g.feed != nil {
			// Feed punctuations carry the commit timestamp.
			if e.Tuple.Ts < k.lastCTS {
				k.ctsBack.Add(1)
			}
			k.lastCTS = e.Tuple.Ts
		}
		if k.g.slots != nil {
			<-k.g.slots
		}
		k.commits++
		k.delivered.Add(k.pending)
		k.pending = 0
	}
}

// fold is the downstream lanes' stand-in consumer work; it also checks
// that commit timestamps never go backwards within a partition.
func (k *sink) fold(lane int, s *stream.Stream) *stream.Stream {
	return s.Map("fold", func(tp stream.Tuple) stream.Tuple {
		if tp.Ts < k.laneCTS[lane] {
			k.ctsBack.Add(1)
		}
		k.laneCTS[lane] = tp.Ts
		var acc uint64
		for _, b := range tp.Value {
			acc = acc*31 + uint64(b)
		}
		tp.Num = float64(acc % 1024)
		return tp
	})
}

// missing counts the emitted sequence numbers that never arrived.
func (k *sink) missing(emitted uint64) uint64 {
	arrived := 0
	for _, w := range k.seen {
		arrived += bits.OnesCount64(w)
	}
	return emitted - uint64(arrived)
}

// reader is the ad-hoc query client of mixed-index-mem: one goroutine
// repeating a fixed cycle of 16 queries, each checked for the paper's
// claim C3 (a key read from both states under one snapshot has one value).
type reader struct {
	g *rig
	r rng
	z *zipf

	queries atomic.Int64
	stop    chan struct{}
	done    chan struct{}

	point   samples // read-only transactions of 10 point reads
	lookup  samples // Snapshot + index Lookup of one bucket
	scan    samples // two-table Snapshot + ScanStripe
	rows    int64   // rows the stripe scans visited
	failed  int64
	torn    int64 // cross-state mismatches
	started int64
}

func newReader(g *rig) *reader {
	return &reader{
		g: g, r: rng{s: g.in.r.s ^ 0x5eed}, z: newZipf(len(g.in.keys), g.spec.theta),
		stop: make(chan struct{}), done: make(chan struct{}),
	}
}

func (rd *reader) halt() {
	close(rd.stop)
	<-rd.done
}

func (rd *reader) run() {
	defer close(rd.done)
	for cycle := 0; ; cycle++ {
		for q := 0; q < 16; q++ {
			select {
			case <-rd.stop:
				return
			default:
			}
			rd.started++
			start := time.Now()
			var err error
			var into *samples
			switch {
			case q < 14:
				into, err = &rd.point, rd.pointTxn()
			case q == 14:
				into, err = &rd.lookup, rd.indexLookup(cycle%indexBuckets)
			default:
				into, err = &rd.scan, rd.stripeScan(cycle%scanStripes)
			}
			if err != nil {
				rd.failed++
				rd.g.bad.add("reader: %v", err)
				continue
			}
			into.add(int64(start.Sub(rd.g.epoch)), int64(time.Since(start)))
			rd.queries.Add(1)
		}
	}
}

func (rd *reader) pointTxn() error {
	g := rd.g
	tx, err := g.p.BeginReadOnly()
	if err != nil {
		return err
	}
	for i := 0; i < 5; i++ {
		key := g.in.keys[g.in.order[rd.z.sample(&rd.r)]]
		a, okA, errA := g.p.Read(tx, g.tables[0], key)
		b, okB, errB := g.p.Read(tx, g.tables[1], key)
		if errA != nil || errB != nil {
			_ = g.p.Abort(tx) // the failed read is what gets reported
			return fmt.Errorf("point read %q: %v %v", key, errA, errB)
		}
		if okA != okB || string(a) != string(b) {
			rd.torn++
		}
	}
	return g.p.Commit(tx)
}

func (rd *reader) indexLookup(bucket int) error {
	snap, err := rd.g.ctx.Snapshot(rd.g.tables[0])
	if err != nil {
		return err
	}
	defer snap.Release()
	return snap.Lookup(rd.g.ix, bucketNames[bucket], func(string, []byte) bool { return true })
}

// stripeScan folds one stripe of both states under one snapshot; the
// tables shard keys alike, so the folds must agree.
func (rd *reader) stripeScan(stripe int) error {
	g := rd.g
	snap, err := g.ctx.Snapshot(g.tables...)
	if err != nil {
		return err
	}
	defer snap.Release()
	var folds [2]uint64
	for i, t := range g.tables {
		err := snap.ScanStripe(t, stripe, scanStripes, func(key string, value []byte) bool {
			folds[i] += txn.DefaultKeyHash(key) ^ hashBytes(value)
			rd.rows++
			return true
		})
		if err != nil {
			return err
		}
	}
	if folds[0] != folds[1] {
		rd.torn++
	}
	return nil
}

// slicer reads counters at the edges of the measured window's slices, so
// a throughput is the median of the slice rates and not total/elapsed.
type slicer struct {
	plan     runPlan
	counters []*atomic.Int64
	stop     chan struct{}
	done     chan struct{}

	at     []int64   // when each edge was read
	counts [][]int64 // per counter, its value at each edge
}

func newSlicer(pl runPlan, c *atomic.Int64) *slicer {
	return &slicer{plan: pl, counters: []*atomic.Int64{c}, counts: make([][]int64, 1),
		stop: make(chan struct{}), done: make(chan struct{})}
}

func (sl *slicer) watch(c *atomic.Int64) {
	sl.counters = append(sl.counters, c)
	sl.counts = append(sl.counts, nil)
}

func (sl *slicer) run(epoch time.Time) {
	defer close(sl.done)
	if sl.plan.fixedWork() {
		return
	}
	for edge := sl.plan.warm; edge <= sl.plan.warm+sl.plan.measure; edge += sl.plan.slice {
		select {
		case <-sl.stop:
			return
		case <-time.After(time.Until(epoch.Add(edge))):
		}
		sl.at = append(sl.at, int64(time.Since(epoch)))
		for i, c := range sl.counters {
			sl.counts[i] = append(sl.counts[i], c.Load())
		}
	}
}

func (sl *slicer) halt() {
	close(sl.stop)
	<-sl.done
}

// rates returns counter i's rate per second in every complete slice.
func (sl *slicer) rates(i int) []float64 {
	var out []float64
	for e := 1; e < len(sl.at); e++ {
		dt := float64(sl.at[e]-sl.at[e-1]) / 1e9
		out = append(out, float64(sl.counts[i][e]-sl.counts[i][e-1])/dt)
	}
	return out
}
