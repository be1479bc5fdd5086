package stream

import "fmt"

// AggFunc folds a window of numeric samples into one value.
type AggFunc func(values []float64) float64

// Built-in aggregate functions for window operators.
var (
	// Sum adds all samples.
	Sum AggFunc = func(vs []float64) float64 {
		var s float64
		for _, v := range vs {
			s += v
		}
		return s
	}
	// Avg is the arithmetic mean.
	Avg AggFunc = func(vs []float64) float64 {
		if len(vs) == 0 {
			return 0
		}
		return Sum(vs) / float64(len(vs))
	}
	// Min returns the smallest sample.
	Min AggFunc = func(vs []float64) float64 {
		if len(vs) == 0 {
			return 0
		}
		m := vs[0]
		for _, v := range vs[1:] {
			if v < m {
				m = v
			}
		}
		return m
	}
	// Max returns the largest sample.
	Max AggFunc = func(vs []float64) float64 {
		if len(vs) == 0 {
			return 0
		}
		m := vs[0]
		for _, v := range vs[1:] {
			if v > m {
				m = v
			}
		}
		return m
	}
	// Count returns the number of samples.
	Count AggFunc = func(vs []float64) float64 { return float64(len(vs)) }
)

// SlidingWindow maintains, per key, a count-based sliding window of the
// last `size` Num samples and emits one aggregated tuple for every input
// tuple (Key preserved, Num = agg(window), Ts from the triggering tuple).
// This is the stateful "Window + Aggregate" operator pattern of the
// paper's Figure 1; combined with ToTable its state becomes queryable.
// Punctuations pass through. The operator is one-to-one, so batches are
// aggregated in place and forwarded without copying.
// A size below one is a construction error that Run returns.
func (s *Stream) SlidingWindow(name string, size int, agg AggFunc) *Stream {
	if size <= 0 {
		s.t.fail(name, fmt.Errorf("SlidingWindow needs size >= 1, got %d", size))
		size = 1
	}
	out := s.t.newStream()
	windows := map[string][]float64{}
	s.consume(name, func(b []Element) {
		for i := range b {
			e := &b[i]
			if e.Kind != KindData {
				continue
			}
			w := append(windows[e.Tuple.Key], e.Tuple.Num)
			if len(w) > size {
				w = w[len(w)-size:]
			}
			windows[e.Tuple.Key] = w
			e.Tuple.Num = agg(w)
		}
		out.ch <- b
	}, func() { close(out.ch) })
	return out
}

// TumblingWindow groups data tuples per key into non-overlapping windows
// of `size` event-time units (based on Tuple.Ts) and emits one aggregated
// tuple per key when its window closes (a later-window tuple for that key
// arrives). Remaining windows are flushed when the stream ends.
// Punctuations pass through unchanged. A size below one is a construction
// error that Run returns.
func (s *Stream) TumblingWindow(name string, size int64, agg AggFunc) *Stream {
	if size <= 0 {
		s.t.fail(name, fmt.Errorf("TumblingWindow needs size >= 1, got %d", size))
		size = 1
	}
	out := s.t.newStream()
	type win struct {
		start  int64
		values []float64
		last   Tuple
	}
	wins := map[string]*win{}
	flush := func(w *win, tx *Element, ob []Element) []Element {
		t := w.last
		t.Num = agg(w.values)
		t.Ts = w.start
		e := Element{Kind: KindData, Tuple: t}
		if tx != nil {
			e.Tx = tx.Tx
		}
		return append(ob, e)
	}
	send := func(ob []Element) {
		if len(ob) > 0 {
			out.ch <- ob
		} else {
			putBatch(ob)
		}
	}
	s.consume(name, func(b []Element) {
		ob := getBatch()
		for _, e := range b {
			if e.Kind != KindData {
				ob = append(ob, e)
				continue
			}
			k := e.Tuple.Key
			start := (e.Tuple.Ts / size) * size
			w := wins[k]
			if w != nil && w.start != start {
				ob = flush(w, &e, ob)
				w = nil
			}
			if w == nil {
				w = &win{start: start}
				wins[k] = w
			}
			w.values = append(w.values, e.Tuple.Num)
			w.last = e.Tuple
		}
		putBatch(b)
		send(ob)
	}, func() {
		ob := getBatch()
		for _, w := range wins {
			ob = flush(w, nil, ob)
		}
		send(ob)
		close(out.ch)
	})
	return out
}

// KeyBy rewrites tuple keys via fn (a grouping/repartitioning helper).
func (s *Stream) KeyBy(fn func(Tuple) string) *Stream {
	return s.Map("keyby", func(t Tuple) Tuple {
		t.Key = fn(t)
		return t
	})
}

// FormatValue renders Num into Value using the given format, so
// aggregation results can be persisted by ToTable.
func (s *Stream) FormatValue(format string) *Stream {
	return s.Map("format", func(t Tuple) Tuple {
		t.Value = []byte(fmt.Sprintf(format, t.Num))
		return t
	})
}
