package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// The benchmark owns its input generator (it does not import
// internal/zipf or internal/bench), so those packages can be refactored
// without moving any number measured here. Everything below is a pure
// function of the seed.

// rng is splitmix64.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf samples ranks in [0, n) with P(rank k) ∝ 1/(k+1)^theta, by binary
// search over the cumulative distribution.
type zipf struct{ cdf []float64 }

func newZipf(n int, theta float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), theta)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) sample(r *rng) int {
	k := sort.SearchFloat64s(z.cdf, r.float())
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// Value layout. Every written value carries the element's sequence number
// and the time it was due (open loop) or emitted (closed loop), so the
// sink can time and account for each event from the bytes the engine
// delivers, and a byte the secondary index buckets on.
const (
	valueBytes = 28
	offSeq     = 0
	offStamp   = 8
	offBucket  = 16

	// preloadSeq marks a row written by set-up, not by the measured run.
	preloadSeq = math.MaxUint64

	indexBuckets = 64
)

func valueSeq(v []byte) uint64  { return binary.LittleEndian.Uint64(v[offSeq:]) }
func valueStamp(v []byte) int64 { return int64(binary.LittleEndian.Uint64(v[offStamp:])) }

// hashBytes is FNV-1a over b.
func hashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// bucketNames are the index keys of the 64-bucket secondary index.
var bucketNames = func() (out [indexBuckets]string) {
	for i := range out {
		out[i] = fmt.Sprintf("b%02d", i)
	}
	return out
}()

// bucketOf is the index extractor (txn.IndexKeyFunc).
func bucketOf(_ string, value []byte) (string, bool) {
	if len(value) <= offBucket {
		return "", false
	}
	return bucketNames[value[offBucket]%indexBuckets], true
}

// inputs is everything a workload feeds the engine, derived from the seed:
// the key table, the order keys are visited in, and the value filler.
type inputs struct {
	keys []string
	// order maps a visit rank to a key index: position in the cycle for
	// cycling workloads, popularity rank for Zipf ones. Seeded, so which
	// keys are hot (and which lane they hash to) changes with the seed.
	order []int32
	zipf  *zipf // nil: visit keys in a cycle
	r     rng
	n     uint64 // elements generated so far

	// slab backs the values of 128 consecutive elements with one
	// allocation; the engine copies values on write, so a slab dies as
	// soon as its elements have passed TO_TABLE.
	slab []byte
}

func newInputs(seed uint64, keys int, theta float64) *inputs {
	in := &inputs{r: rng{s: seed}}
	in.keys = make([]string, keys)
	in.order = make([]int32, keys)
	for i := range in.keys {
		in.keys[i] = fmt.Sprintf("k%07d", i)
		in.order[i] = int32(i)
	}
	for i := keys - 1; i > 0; i-- {
		j := in.r.intn(i + 1)
		in.order[i], in.order[j] = in.order[j], in.order[i]
	}
	if theta > 0 {
		in.zipf = newZipf(keys, theta)
	}
	return in
}

// next returns the key index and value of the next element; stamp is
// written into the value as given.
func (in *inputs) next(stamp int64) (key int, value []byte) {
	if in.zipf != nil {
		key = int(in.order[in.zipf.sample(&in.r)])
	} else {
		key = int(in.order[in.n%uint64(len(in.order))])
	}
	if len(in.slab) < valueBytes {
		in.slab = make([]byte, 128*valueBytes)
	}
	value, in.slab = in.slab[:valueBytes:valueBytes], in.slab[valueBytes:]
	binary.LittleEndian.PutUint64(value[offSeq:], in.n)
	binary.LittleEndian.PutUint64(value[offStamp:], uint64(stamp))
	// The bucket byte: a key alternates between two neighbouring buckets,
	// so about every second rewrite moves its index posting, and the set of
	// postings the index ever holds stays bounded (two per key).
	fill := in.r.next()
	binary.LittleEndian.PutUint64(value[offBucket:], fill)
	value[offBucket] = byte(key) + byte(fill>>8&1)
	in.n++
	return key, value
}

// preloadValue is the value set-up writes for every key before the run.
func preloadValue(key int) []byte {
	v := make([]byte, valueBytes)
	binary.LittleEndian.PutUint64(v[offSeq:], preloadSeq)
	v[offBucket] = byte(key)
	return v
}
