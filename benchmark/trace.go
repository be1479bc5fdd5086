package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"sistream/internal/kv"
	"sistream/internal/txn"
)

// tracer holds the spans of a traced run. Everything is recorded from the
// benchmark's side of a public call — the source's emit, a kv.Store
// decorator, a Group.Watch commit watcher, the sink — kept in memory and
// written out when the run has ended.
type tracer struct {
	epoch time.Time

	emits []span // source goroutine: one per transaction, around its emit calls

	mu      sync.Mutex // the store may be called from any goroutine
	applies []applySpan
	syncs   int64 // Store.Sync calls; an Apply asked to sync is counted from its span

	pubs []pubPoint // commit watcher: runs under the group's commit latch

	arrivals []arrival // sink goroutine
}

type span struct{ start, end int64 }

type applySpan struct {
	span
	ops, bytes int
	sync       bool
}

// pubPoint is the time a commit timestamp became visible.
type pubPoint struct {
	cts uint64
	at  int64
}

// arrival is one timed event reaching the downstream sink.
type arrival struct {
	seq, cts  uint64
	stamp, at int64
}

func (tr *tracer) emitted(start, end int64) { tr.emits = append(tr.emits, span{start, end}) }

func (tr *tracer) published(cts txn.Timestamp, _ map[txn.StateID][]string) {
	tr.pubs = append(tr.pubs, pubPoint{cts, int64(time.Since(tr.epoch))})
}

func (tr *tracer) arrived(seq, cts uint64, stamp, at int64) {
	tr.arrivals = append(tr.arrivals, arrival{seq, cts, stamp, at})
}

// timedStore decorates a kv.Store with a span around every Apply and a
// count of every Sync. It forwards the wrapped store's capability flags,
// so the commit path asks for exactly the sync points it would without it.
type timedStore struct {
	kv.Store
	tr *tracer
}

func (s *timedStore) Capabilities() kv.Capabilities { return kv.CapabilitiesOf(s.Store) }

func (s *timedStore) Apply(b *kv.Batch, sync bool) error {
	n := 0
	for _, op := range b.Ops() {
		n += len(op.Key) + len(op.Value)
	}
	start := time.Since(s.tr.epoch)
	err := s.Store.Apply(b, sync)
	end := time.Since(s.tr.epoch)
	s.tr.mu.Lock()
	s.tr.applies = append(s.tr.applies, applySpan{span{int64(start), int64(end)}, b.Len(), n, sync})
	s.tr.mu.Unlock()
	return err
}

func (s *timedStore) Sync() error {
	s.tr.mu.Lock()
	s.tr.syncs++
	s.tr.mu.Unlock()
	return s.Store.Sync()
}

// stages is the split of event latency along the pipeline: per stage, one
// duration in nanoseconds for every timed event that found its spans.
//
//	ingress_wait   stamp (due or emitted) -> the source's emit returned
//	kv.apply       the store Apply of the commit batch that carried it
//	spine          emit returned -> commit visible, minus kv.apply (residual)
//	feed_delivery  commit visible -> the transaction's COMMIT at the sink
type stages struct{ ingress, apply, spine, feed []int64 }

// split joins arrivals to emit spans (by transaction number), publish
// points (by commit timestamp) and Apply spans (the last one that ended
// before the publish).
func (tr *tracer) split(txnSize int) stages {
	pub := make(map[uint64]int64, len(tr.pubs))
	for _, p := range tr.pubs {
		pub[p.cts] = p.at
	}
	applies := append([]applySpan(nil), tr.applies...)
	sort.Slice(applies, func(i, j int) bool { return applies[i].end < applies[j].end })
	var st stages
	for _, a := range tr.arrivals {
		t := int(a.seq) / txnSize
		published, ok := pub[a.cts]
		if t >= len(tr.emits) || !ok {
			continue
		}
		emitEnd := tr.emits[t].end
		i := sort.Search(len(applies), func(i int) bool { return applies[i].end > published }) - 1
		var apply int64
		if i >= 0 {
			apply = min(applies[i].end-applies[i].start, published-emitEnd)
		}
		st.ingress = append(st.ingress, emitEnd-a.stamp)
		st.apply = append(st.apply, apply)
		st.spine = append(st.spine, published-emitEnd-apply)
		st.feed = append(st.feed, a.at-published)
	}
	return st
}

// write stores the spans as CSV: name,start_ns,end_ns,txn,cts. Arrival
// rows are written for the first event of each transaction only.
func (tr *tracer) write(path string, txnSize int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,start_ns,end_ns,txn,cts")
	for t, s := range tr.emits {
		fmt.Fprintf(w, "source.emit,%d,%d,%d,\n", s.start, s.end, t)
	}
	for _, a := range tr.applies {
		fmt.Fprintf(w, "kv.apply,%d,%d,,\n", a.start, a.end)
	}
	for _, p := range tr.pubs {
		fmt.Fprintf(w, "txn.publish,%d,%d,,%d\n", p.at, p.at, p.cts)
	}
	for _, a := range tr.arrivals {
		if int(a.seq)%txnSize == 0 {
			fmt.Fprintf(w, "sink.arrival,%d,%d,%d,%d\n", a.stamp, a.at, int(a.seq)/txnSize, a.cts)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
