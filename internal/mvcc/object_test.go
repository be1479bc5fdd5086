package mvcc

import (
	"fmt"
	"iter"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestEmptyObjectInvisible(t *testing.T) {
	o := NewObject(4)
	if _, ok := o.Read(100); ok {
		t.Fatal("empty object returned a version")
	}
	if o.LatestCTS() != 0 {
		t.Fatal("latest CTS of empty object must be 0")
	}
}

func TestVisibilityWindow(t *testing.T) {
	o := NewObject(4)
	if err := o.Install(10, []byte("v10"), false, 0); err != nil {
		t.Fatal(err)
	}
	if err := o.Install(20, []byte("v20"), false, 0); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		rts  Timestamp
		want string
		ok   bool
	}{
		{5, "", false},    // before first commit
		{10, "v10", true}, // exactly at cts: visible
		{15, "v10", true},
		{19, "v10", true},
		{20, "v20", true}, // superseded at 20
		{100, "v20", true},
	}
	for _, c := range cases {
		v, ok := o.Read(c.rts)
		if ok != c.ok || (ok && string(v) != c.want) {
			t.Errorf("Read(%d) = %q,%v; want %q,%v", c.rts, v, ok, c.want, c.ok)
		}
	}
	if o.LatestCTS() != 20 {
		t.Fatalf("latest = %d", o.LatestCTS())
	}
}

func TestDeleteTerminatesVisibility(t *testing.T) {
	o := NewObject(4)
	if err := o.Install(10, []byte("v"), false, 0); err != nil {
		t.Fatal(err)
	}
	if err := o.Install(30, nil, true, 0); err != nil {
		t.Fatal(err)
	}
	if v, ok := o.Read(20); !ok || string(v) != "v" {
		t.Fatal("pre-delete snapshot must still see the value")
	}
	if _, ok := o.Read(30); ok {
		t.Fatal("snapshot at deletion timestamp must not see the value")
	}
	if o.LatestCTS() != 30 {
		t.Fatalf("deletion must advance latest CTS, got %d", o.LatestCTS())
	}
	// Re-insert after deletion.
	if err := o.Install(40, []byte("v2"), false, 0); err != nil {
		t.Fatal(err)
	}
	if v, ok := o.Read(45); !ok || string(v) != "v2" {
		t.Fatal("re-insert after delete failed")
	}
	if _, ok := o.Read(35); ok {
		t.Fatal("gap between delete and re-insert must be invisible")
	}
}

func TestNonMonotonicInstallRejected(t *testing.T) {
	o := NewObject(4)
	if err := o.Install(10, []byte("a"), false, 0); err != nil {
		t.Fatal(err)
	}
	if err := o.Install(10, []byte("b"), false, 0); err == nil {
		t.Fatal("equal cts must be rejected")
	}
	if err := o.Install(5, []byte("b"), false, 0); err == nil {
		t.Fatal("lower cts must be rejected")
	}
}

func TestGCOnDemand(t *testing.T) {
	o := NewObject(2)
	if err := o.Install(1, []byte("a"), false, 0); err != nil {
		t.Fatal(err)
	}
	if err := o.Install(2, []byte("b"), false, 0); err != nil {
		t.Fatal(err)
	}
	// Array full. Next install with oldestActive=2 can reclaim version 1
	// (dts=2 <= 2).
	if err := o.Install(3, []byte("c"), false, 2); err != nil {
		t.Fatal(err)
	}
	if o.Capacity() != 2 {
		t.Fatalf("GC should have avoided growth, capacity = %d", o.Capacity())
	}
	if _, ok := o.Read(1); ok {
		t.Fatal("reclaimed version still readable")
	}
	if v, ok := o.Read(10); !ok || string(v) != "c" {
		t.Fatal("latest version lost")
	}
}

func TestGrowthWhenNothingReclaimable(t *testing.T) {
	o := NewObject(2)
	// oldestActive=0 pins everything.
	for cts := Timestamp(1); cts <= 5; cts++ {
		if err := o.Install(cts, []byte{byte(cts)}, false, 0); err != nil {
			t.Fatal(err)
		}
	}
	if o.Capacity() < 5 {
		t.Fatalf("array should have grown, capacity = %d", o.Capacity())
	}
	// Every historical snapshot still readable.
	for rts := Timestamp(1); rts <= 5; rts++ {
		v, ok := o.Read(rts)
		if !ok || v[0] != byte(rts) {
			t.Fatalf("snapshot %d lost: %v %v", rts, v, ok)
		}
	}
}

func TestGrowthBeyondOneBitVectorWord(t *testing.T) {
	// More than 64 pinned versions must be supported: the multi-word
	// UsedSlots vector grows with the array (see package comment).
	o := NewObject(4)
	const n = 200
	for cts := Timestamp(1); cts <= n; cts++ {
		if err := o.Install(cts, []byte{byte(cts)}, false, 0); err != nil {
			t.Fatal(err)
		}
	}
	if o.LiveVersions() != n {
		t.Fatalf("live versions = %d, want %d", o.LiveVersions(), n)
	}
	for rts := Timestamp(1); rts <= n; rts += 17 {
		v, ok := o.Read(rts)
		if !ok || v[0] != byte(rts) {
			t.Fatalf("snapshot %d lost", rts)
		}
	}
	// Once the pin lifts, GC reclaims everything but the live version
	// and the array stops growing.
	if got := o.GC(n); got != n-1 {
		t.Fatalf("GC reclaimed %d, want %d", got, n-1)
	}
	if o.LiveVersions() != 1 {
		t.Fatalf("live after GC = %d", o.LiveVersions())
	}
}

func TestExplicitGC(t *testing.T) {
	o := NewObject(8)
	for cts := Timestamp(1); cts <= 5; cts++ {
		if err := o.Install(cts, []byte("v"), false, 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := o.GC(3); n != 2 { // versions with dts 2 and 3
		t.Fatalf("GC(3) reclaimed %d, want 2", n)
	}
	if n := o.GC(3); n != 0 {
		t.Fatalf("second GC reclaimed %d", n)
	}
	if o.LiveVersions() != 3 {
		t.Fatalf("live versions = %d", o.LiveVersions())
	}
	if v, ok := o.Read(Infinity); !ok || string(v) != "v" {
		t.Fatal("live version lost by GC")
	}
}

// TestInstallTakesOwnership documents the Install aliasing contract: the
// object adopts the caller's buffer (no defensive copy on the hot path),
// so the commit paths hand over their private write-set copies and the
// caller must not touch the buffer afterwards.
func TestInstallTakesOwnership(t *testing.T) {
	o := NewObject(4)
	buf := []byte("orig")
	if err := o.Install(1, buf, false, 0); err != nil {
		t.Fatal(err)
	}
	if v, _ := o.Read(1); &v[0] != &buf[0] {
		t.Fatal("Install copied the value; expected ownership transfer")
	}
}

func TestInstallRecovered(t *testing.T) {
	o := NewObject(4)
	o.InstallRecovered(7, []byte("r"))
	if v, ok := o.Read(7); !ok || string(v) != "r" {
		t.Fatal("recovered version not visible")
	}
	if _, ok := o.Read(6); ok {
		t.Fatal("recovered version visible too early")
	}
	if o.LatestCTS() != 7 {
		t.Fatalf("latest = %d", o.LatestCTS())
	}
	if err := o.Install(8, []byte("n"), false, 0); err != nil {
		t.Fatal(err)
	}
	if v, _ := o.Read(Infinity); string(v) != "n" {
		t.Fatal("post-recovery install broken")
	}
}

func TestSlotClamping(t *testing.T) {
	if NewObject(0).Capacity() != DefaultSlots {
		t.Fatal("0 should select DefaultSlots")
	}
	if NewObject(-3).Capacity() != 1 {
		t.Fatal("negative should clamp to 1")
	}
	if NewObject(1000).Capacity() != 1000 {
		t.Fatal("large initial capacity should be honored")
	}
}

// TestPropertyVisibility builds a random committed history and checks the
// fundamental snapshot-isolation invariant on the object level: a read at
// rts sees exactly the version whose [cts, dts) interval contains rts.
func TestPropertyVisibility(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		o := NewObject(4)
		type event struct {
			cts    Timestamp
			val    string
			delete bool
		}
		var history []event
		cts := Timestamp(0)
		for i := 0; i < 30; i++ {
			cts += Timestamp(rng.Intn(5) + 1)
			ev := event{cts: cts, val: fmt.Sprintf("v%d", cts), delete: rng.Intn(4) == 0}
			// oldestActive = 0 pins everything so every snapshot stays checkable.
			var err error
			if ev.delete {
				err = o.Install(cts, nil, true, 0)
			} else {
				err = o.Install(cts, []byte(ev.val), false, 0)
			}
			if err != nil {
				return false
			}
			history = append(history, ev)
		}
		// Reference model: replay history for arbitrary rts.
		for probe := 0; probe < 50; probe++ {
			rts := Timestamp(rng.Intn(int(cts) + 3))
			var want string
			var visible bool
			for _, ev := range history {
				if ev.cts <= rts {
					if ev.delete {
						visible = false
					} else {
						visible, want = true, ev.val
					}
				}
			}
			v, ok := o.Read(rts)
			if ok != visible || (ok && string(v) != want) {
				t.Logf("rts=%d: got %q,%v want %q,%v", rts, v, ok, want, visible)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentReadersDuringInstalls hammers an object with concurrent
// snapshot reads while versions are installed, asserting that each reader
// observes internally consistent values (value matches the snapshot).
func TestConcurrentReadersDuringInstalls(t *testing.T) {
	o := NewObject(8)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				latest := o.LatestCTS()
				if v, ok := o.Read(latest); ok {
					// Value encodes its cts; it must be <= our snapshot.
					var cts Timestamp
					fmt.Sscanf(string(v), "v%d", &cts)
					if cts > latest {
						t.Errorf("read from the future: %q at rts %d", v, latest)
						return
					}
				}
			}
		}()
	}
	for cts := Timestamp(1); cts <= 3000; cts++ {
		// oldestActive tracks closely so GC constantly runs.
		old := Timestamp(0)
		if cts > 4 {
			old = cts - 4
		}
		if err := o.Install(cts, []byte(fmt.Sprintf("v%d", cts)), false, old); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func BenchmarkObjectRead(b *testing.B) {
	o := NewObject(8)
	for cts := Timestamp(1); cts <= 8; cts++ {
		if err := o.Install(cts, []byte("value-of-20-bytes!!"), false, cts-1); err != nil {
			b.Fatal(err)
		}
	}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			o.Read(5)
		}
	})
}

func BenchmarkObjectInstall(b *testing.B) {
	o := NewObject(8)
	val := []byte("value-of-20-bytes!!")
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		cts := Timestamp(i)
		old := Timestamp(0)
		if cts > 2 {
			old = cts - 2
		}
		if err := o.Install(cts, val, false, old); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRetainedSeesEveryOccupiedSlot: the iteration hook yields the value
// of every retained version, dead-but-unreclaimed ones included, oldest
// first, and stops when the caller stops ranging.
func TestRetainedSeesEveryOccupiedSlot(t *testing.T) {
	o := NewObject(0)
	for i, v := range []string{"a", "b", "c"} {
		if err := o.Install(Timestamp(10*(i+1)), []byte(v), false, 0); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	o.Retained(func(values iter.Seq[[]byte]) {
		for v := range values {
			got = append(got, string(v))
		}
	})
	if !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Fatalf("retained = %v, want [a b c]", got)
	}
	o.GC(25) // a's dts is 20: reclaimed; b (dts 30) and c stay
	got = got[:0]
	o.Retained(func(values iter.Seq[[]byte]) {
		for v := range values {
			got = append(got, string(v))
			break
		}
	})
	if !slices.Equal(got, []string{"b"}) {
		t.Fatalf("retained after GC, first only = %v, want [b]", got)
	}
}
