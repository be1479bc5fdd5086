package txn

import (
	"math"
	"runtime"
	"sync/atomic"
)

// cut is a registered read cut: the timestamp each topology group is read
// at, and the GC pin that keeps the versions those reads need. A
// transaction embeds one and fills it as it reaches groups (Txn.pin); a
// Snapshot embeds one and fills it at once (Context.Snapshot). The
// active-transaction table holds cuts: OldestActiveVersion folds in the
// pin of every registered one.
type cut struct {
	ctx  *Context
	slot int

	// readCTS is the cut each topology group is read at: the group's
	// LastCTS, pinned by pinGroups (paper Section 4.2/4.3). cutBuf backs
	// it for a cut of one group.
	readCTS []groupCut
	cutBuf  [1]groupCut

	// pinnedOldest is what this cut forces OldestActiveVersion to: at or
	// below the oldest cut in readCTS. 0 = no pin yet. It is read
	// concurrently by the GC horizon scan, hence atomic.
	pinnedOldest atomic.Uint64

	// startTS is a transaction's begin timestamp: BOCC validates against
	// the transactions committed after it, and keeps history back to the
	// oldest registered transaction's (oldestActiveStart). A snapshot,
	// which validates nothing, leaves it 0.
	startTS Timestamp
}

// groupCut is the cut one topology group is read at.
type groupCut struct {
	g   *Group
	cts Timestamp
}

// at returns the cut g is read at, if one is pinned.
func (k *cut) at(g *Group) (Timestamp, bool) {
	for _, c := range k.readCTS {
		if c.g == g {
			return c.cts, true
		}
	}
	return 0, false
}

// oldest returns the oldest group cut: every group is read at or after it.
func (k *cut) oldest() Timestamp {
	oldest := Timestamp(math.MaxUint64)
	for _, c := range k.readCTS {
		oldest = min(oldest, c.cts)
	}
	return oldest
}

// pinGroups is the one read-cut rule: it adds each group of gs, none of
// them in the cut yet, to readCTS at that group's own published LastCTS,
// and holds the GC pin (pinnedOldest) at or below the oldest cut read.
//
// Two checks make the cut safe to read. The groups are read only while no
// spanning commit is publishing (Context.spanning is even), so a commit
// across several of them is seen in all or in none. And the pin is
// stored before it is validated: if the spanning counter or any LastCTS
// moved by then, a commit may have taken its GC horizon before the pin
// was visible, so the cuts are read again. On exit, a commit of a group
// that took its horizon before the pin is either published at or below
// the group's cut or still holds the group's latch; either way it
// reclaims only versions ended at or below the cut, which the cut does
// not read. Every later commit sees the pin.
func (k *cut) pinGroups(gs []*Group) {
	if k.readCTS == nil {
		k.readCTS = k.cutBuf[:0]
	}
	n := len(k.readCTS)
	spanning := &k.ctx.spanning
	for {
		seq := spanning.Load()
		if seq&1 != 0 {
			runtime.Gosched()
			continue
		}
		oldest := Timestamp(math.MaxUint64)
		k.readCTS = k.readCTS[:n]
		for _, g := range gs {
			cts := g.LastCTS()
			k.readCTS = append(k.readCTS, groupCut{g, cts})
			oldest = min(oldest, cts)
		}
		if p := k.pinnedOldest.Load(); p == 0 || oldest < p {
			k.pinnedOldest.Store(oldest)
		}
		stable := spanning.Load() == seq
		for _, c := range k.readCTS[n:] {
			stable = stable && c.g.LastCTS() == c.cts
		}
		if stable {
			return
		}
	}
}

// release drops the GC pin: it frees the cut's slot.
func (k *cut) release() { k.ctx.unregister(k) }
