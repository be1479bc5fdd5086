package mvcc

import (
	"bytes"
	"iter"
	"slices"
	"strconv"
	"testing"
)

// version is one install of the model history: a deletion ends the live
// version and adds none.
type version struct {
	cts, dts Timestamp
	value    string
}

// objectModel replays an object's history: every version ever installed,
// oldest first.
type objectModel struct {
	versions []version
	latest   Timestamp
}

func (m *objectModel) install(cts Timestamp, value string, delete bool) {
	if n := len(m.versions); n > 0 && m.versions[n-1].dts == 0 {
		m.versions[n-1].dts = cts
	}
	if !delete {
		m.versions = append(m.versions, version{cts: cts, value: value})
	}
	m.latest = cts
}

func (m *objectModel) read(rts Timestamp) (string, bool) {
	for _, v := range m.versions {
		if v.cts <= rts && (v.dts == 0 || v.dts > rts) {
			return v.value, true
		}
	}
	return "", false
}

func retained(o *Object) []string {
	var out []string
	o.Retained(func(values iter.Seq[[]byte]) {
		for v := range values {
			out = append(out, string(v))
		}
	})
	return out
}

// Reader modes of the fuzzed script, as Install and GC see them.
const (
	unpinned = iota // no reader: oldestActive is the installing cts
	trailing        // a reader at the latest commit, as during a commit batch
	pinned          // a snapshot held at one commit while the key moves on
)

// FuzzObjectModel runs fuzzed scripts of installs, deletes, GC, Retained
// and reads against a replayed history. The first byte picks the slot
// count (1–4); each following byte pair is an op and its argument. Reader
// modes move the horizon: no reader, one trailing the latest commit, or a
// snapshot pinned at one commit. After every op, a read at any rts at or
// above the horizon matches the history; Capacity never shrinks; while no
// reader has ever held the horizon back the object never grows, so
// LiveVersions stays within the slot count, and with no reader a GC leaves
// at most the live version; and Retained yields the retained values oldest
// first — a subsequence of the history holding every version the horizon
// still protects, exactly those right after a GC, as many as LiveVersions.
func FuzzObjectModel(f *testing.F) {
	f.Add([]byte{0, 0, 5, 0, 9, 4, 0, 0, 3})
	f.Add([]byte{1, 3, 2, 0, 1, 0, 30, 0, 2, 1, 0, 0, 7, 5, 0, 3, 0, 4, 0, 0, 1})
	f.Add([]byte{3, 3, 1, 0, 0, 0, 1, 2, 0, 0, 2, 0, 3, 4, 0, 5, 9, 3, 2, 0, 4})
	f.Add([]byte{2, 3, 2, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 3, 0, 0, 6, 4, 0, 5, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		slots := int(script[0]%4) + 1
		o := NewObject(slots)
		var (
			m     objectModel
			mode  = unpinned
			pinAt Timestamp
			// heldBack: a reader has held the horizon back during an
			// install.
			heldBack bool
			capacity = o.Capacity()
			rtsProbe Timestamp
		)
		// horizonFor is the oldestActive of an install at cts, or of a GC
		// or a read probe at the latest commit.
		horizonFor := func(cts Timestamp) Timestamp {
			switch mode {
			case trailing:
				return m.latest
			case pinned:
				return pinAt
			}
			return cts
		}
		if capacity != slots {
			t.Fatalf("NewObject(%d).Capacity() = %d", slots, capacity)
		}
		for i := 1; i+1 < len(script); i += 2 {
			op, arg := script[i]%6, script[i+1]
			afterGC := false
			switch op {
			case 0, 1: // install a value, or delete
				cts := m.latest + Timestamp(arg%3) + 1
				value := strconv.FormatUint(cts, 10) + ":" + string(bytes.Repeat([]byte{'x'}, int(arg)%24))
				if err := o.Install(cts, []byte(value), op == 1, horizonFor(cts)); err != nil {
					t.Fatal(err)
				}
				m.install(cts, value, op == 1)
				if mode != unpinned {
					heldBack = true
				}
			case 2: // the reader mode moves
				mode = int(arg) % 3
				pinAt = m.latest
			case 3: // a sweep at the current horizon
				h := horizonFor(m.latest)
				o.GC(h)
				afterGC = true
				if mode == unpinned && o.LiveVersions() > 1 {
					t.Fatalf("op %d: %d versions left by a GC with no reader", i, o.LiveVersions())
				}
			case 4: // Retained, checked below after every op
			case 5: // a probe at a chosen offset above the horizon
				rtsProbe = Timestamp(arg)
			}

			if c := o.Capacity(); c < capacity {
				t.Fatalf("op %d: capacity shrank from %d to %d", i, capacity, c)
			} else {
				capacity = c
			}
			live := o.LiveVersions()
			if !heldBack && (capacity != slots || live > slots) {
				t.Fatalf("op %d: %d live versions, capacity %d, in %d slots with no reader holding the horizon", i, live, capacity, slots)
			}

			horizon := horizonFor(m.latest)
			probes := []Timestamp{horizon, m.latest, m.latest + 1, Infinity, horizon + rtsProbe%(m.latest-horizon+2)}
			for _, rts := range probes {
				want, wantOK := m.read(rts)
				got, ok := o.Read(rts)
				if ok != wantOK || string(got) != want {
					t.Fatalf("op %d: Read(%d) = %q,%v; history says %q,%v (horizon %d)", i, rts, got, ok, want, wantOK, horizon)
				}
			}

			got := retained(o)
			if len(got) != live {
				t.Fatalf("op %d: Retained yields %d values, LiveVersions is %d", i, len(got), live)
			}
			var all, protected []string
			for _, v := range m.versions {
				all = append(all, v.value)
				if v.dts == 0 || v.dts > horizon {
					protected = append(protected, v.value)
				}
			}
			if afterGC && !slices.Equal(got, protected) {
				t.Fatalf("op %d: Retained after GC = %v, want the unreclaimed %v", i, got, protected)
			}
			if !isSubsequence(got, all) || !isSubsequence(protected, got) {
				t.Fatalf("op %d: Retained = %v, history %v, protected by the horizon %v", i, got, all, protected)
			}
		}
	})
}

// isSubsequence reports whether sub is a subsequence of seq.
func isSubsequence(sub, seq []string) bool {
	i := 0
	for _, s := range seq {
		if i < len(sub) && sub[i] == s {
			i++
		}
	}
	return i == len(sub)
}
