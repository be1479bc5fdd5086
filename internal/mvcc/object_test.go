package mvcc

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime"
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

// TestSpillReturnsInline: a default-sized object that spilled under a pin
// returns to the inline layout once it has gone calmRounds times as many
// installs as it has slots needing no more than the inline ones, keeping
// the live version and the one a reader at the previous commit still
// reads; an object sized by Init keeps its size.
func TestSpillReturnsInline(t *testing.T) {
	for _, slots := range []int{DefaultSlots, 3} {
		o := NewObject(slots)
		cts := Timestamp(0)
		install := func(oldestActive Timestamp) {
			t.Helper()
			cts++
			if err := o.Install(cts, []byte(fmt.Sprintf("v%d", cts)), false, oldestActive); err != nil {
				t.Fatal(err)
			}
		}
		for range 6 { // a snapshot pinned at 0 holds every version
			install(0)
		}
		grown := o.Capacity()
		if grown < 6 {
			t.Fatalf("slots %d: capacity %d after 6 pinned installs", slots, grown)
		}
		for i := range calmRounds*grown - 1 { // a reader trailing the latest commit
			install(cts)
			if o.Capacity() != grown {
				t.Fatalf("slots %d: capacity %d after %d calm installs, want %d until %d", slots, o.Capacity(), i+1, grown, calmRounds*grown)
			}
		}
		install(cts)
		want := grown
		if slots == DefaultSlots {
			want = DefaultSlots
		}
		if o.Capacity() != want {
			t.Fatalf("slots %d: capacity %d after %d calm installs, want %d", slots, o.Capacity(), calmRounds*grown, want)
		}
		for rts, v := range map[Timestamp]string{cts - 1: fmt.Sprintf("v%d", cts-1), cts: fmt.Sprintf("v%d", cts)} {
			if got, ok := o.Read(rts); !ok || string(got) != v {
				t.Fatalf("slots %d: Read(%d) = %q,%v after the return, want %q", slots, rts, got, ok, v)
			}
		}
		if slots == DefaultSlots && o.LiveVersions() != DefaultSlots {
			t.Fatalf("%d versions after the return, want the %d kept", o.LiveVersions(), DefaultSlots)
		}
	}
}

// TestRecurringPinsKeepTheSpill: a key rewritten under a snapshot pin
// that recurs after a few calm installs keeps its array — no grow and
// return per pin. Here the first two pins grow the object to 8 slots, and
// the 4 calm installs between pins never return it inline.
func TestRecurringPinsKeepTheSpill(t *testing.T) {
	o := NewObject(0)
	cts := Timestamp(0)
	for round := range 50 {
		pin := cts
		grows := 0
		for i := range 8 {
			oldestActive := cts
			if i < 4 { // four installs under the pin, four calm ones
				oldestActive = pin
			}
			before := o.Capacity()
			cts++
			if err := o.Install(cts, []byte("v"), false, oldestActive); err != nil {
				t.Fatal(err)
			}
			if o.Capacity() > before {
				grows++
			}
		}
		if round > 1 && (grows > 0 || o.Capacity() != 8) {
			t.Fatalf("round %d: %d grows under a recurring pin, capacity %d, want none and 8", round, grows, o.Capacity())
		}
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
	seed := []byte("r")
	o.InstallRecovered(7, seed)
	if v, ok := o.Read(7); !ok || string(v) != "r" {
		t.Fatal("recovered version not visible")
	} else if &v[0] != &seed[0] {
		t.Fatal("InstallRecovered copied the value; expected ownership transfer")
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

// TestConcurrentReadersDuringInstalls hammers a default-sized object with
// concurrent reads while versions are installed: unpinned readers at the
// latest commit must never see a version from the future, and pinned
// readers — a snapshot at the latest commit, held in the writer's horizon
// — must read exactly their version, also while the object spills and
// returns to the inline layout under them. The writer alternates a few
// installs under a pin of its own, which spill the object, with calm ones,
// before each of which it waits until every pinned reader holds the latest
// commit and one does, so the object returns inline while a reader holds
// the version the return may move.
func TestConcurrentReadersDuringInstalls(t *testing.T) {
	const readers, installs = 4, 12000
	o := NewObject(0)
	var (
		mu   sync.Mutex
		pins [readers]Timestamp // 0: not pinned
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for r := 0; r < readers; r++ {
		wg.Add(2)
		go func() { // unpinned
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				runtime.Gosched() // the writer waits on the pinned readers
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
		go func() { // pinned
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				rts := o.LatestCTS()
				pins[r] = rts
				mu.Unlock()
				for range 1 + i%8 {
					if v, ok := o.Read(rts); rts > 0 && (!ok || string(v) != fmt.Sprintf("v%d", rts)) {
						t.Errorf("pinned at %d: Read = %q,%v, want v%d (capacity %d)", rts, v, ok, rts, o.Capacity())
						return
					}
				}
				mu.Lock()
				pins[r] = 0
				mu.Unlock()
				runtime.Gosched()
			}
		}()
	}
	returns, pinnedAcross := 0, 0
	var held Timestamp // the writer's own pin; 0: none
	for cts := Timestamp(1); cts <= installs && !t.Failed(); cts++ {
		// Three installs under the writer's pin spill the object to at
		// most 8 slots; the 77 calm ones after it return it inline. A calm
		// install waits until a reader pins the latest commit and none an
		// older one.
		phase := cts % 80
		if phase == 1 {
			held = cts - 1
		}
		calm := phase > 3 || phase == 0
		if calm {
			held = 0
		}
		mu.Lock()
		for calm && !t.Failed() && (!slices.Contains(pins[:], cts-1) ||
			slices.ContainsFunc(pins[:], func(p Timestamp) bool { return p != 0 && p < cts-1 })) {
			mu.Unlock()
			runtime.Gosched()
			mu.Lock()
		}
		oldestActive := cts - 1 // a reader may hold the latest commit
		for _, p := range append(pins[:], held) {
			if p != 0 {
				oldestActive = min(oldestActive, p)
			}
		}
		spilled := o.Capacity() > DefaultSlots
		if err := o.Install(cts, []byte(fmt.Sprintf("v%d", cts)), false, oldestActive); err != nil {
			mu.Unlock()
			t.Fatal(err)
		}
		if spilled && o.Capacity() == DefaultSlots {
			returns++
			if slices.Contains(pins[:], cts-1) {
				pinnedAcross++
			}
		}
		mu.Unlock()
	}
	t.Logf("%d returns to the inline layout, %d of them with a reader pinned at the version they moved", returns, pinnedAcross)
	if returns < installs/80/2 || pinnedAcross != returns {
		t.Fatalf("%d returns, %d with a reader pinned across one: the race never ran", returns, pinnedAcross)
	}
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

// BenchmarkObjectInstall installs into an object of 8, 64 and 512 slots
// that stays at its size: under a trailing horizon (a reader at the latest
// commit: the oldest version is dead at every install) and under a pinned
// one (a snapshot held for half the slots' worth of commits, then moved to
// the latest). Install finds its slot from the writer's order, so ns/op
// does not depend on the slot count.
func BenchmarkObjectInstall(b *testing.B) {
	val := []byte("value-of-20-bytes!!")
	for _, slots := range []int{8, 64, 512} {
		for _, horizon := range []string{"trailing", "pinned"} {
			b.Run(fmt.Sprintf("slots=%d/%s", slots, horizon), func(b *testing.B) {
				o := NewObject(slots)
				held := Timestamp(slots / 2)
				var cts Timestamp
				for b.Loop() {
					cts++
					oldestActive := cts - 1
					if horizon == "pinned" {
						oldestActive -= oldestActive % held
					}
					if err := o.Install(cts, val, false, oldestActive); err != nil {
						b.Fatal(err)
					}
				}
				if o.Capacity() != slots {
					b.Fatalf("capacity %d, want %d", o.Capacity(), slots)
				}
			})
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
