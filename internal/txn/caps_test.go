package txn

import (
	"sync"
	"testing"

	"sistream/internal/kv"
)

// syncRecorder is a kv.Store + kv.Capable that records the sync flag of
// every Apply, to pin down the group-commit leader's capability gate.
type syncRecorder struct {
	kv.Store
	caps kv.Capabilities

	mu        sync.Mutex
	applies   int
	syncFlags []bool
	syncCalls int
}

func newSyncRecorder(caps kv.Capabilities) *syncRecorder {
	return &syncRecorder{Store: kv.NewMem(), caps: caps}
}

func (r *syncRecorder) Capabilities() kv.Capabilities { return r.caps }

func (r *syncRecorder) Apply(b *kv.Batch, sync bool) error {
	r.mu.Lock()
	r.applies++
	r.syncFlags = append(r.syncFlags, sync)
	r.mu.Unlock()
	return r.Store.Apply(b, sync)
}

func (r *syncRecorder) Sync() error {
	r.mu.Lock()
	r.syncCalls++
	r.mu.Unlock()
	return r.Store.Sync()
}

func (r *syncRecorder) observed() (applies int, anySync bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.syncFlags {
		anySync = anySync || s
	}
	return r.applies, anySync
}

func commitThrough(t *testing.T, store kv.Store, opts TableOptions) {
	t.Helper()
	ctx := NewContext()
	tbl, err := ctx.CreateTable("caps", store, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("caps", tbl); err != nil {
		t.Fatal(err)
	}
	p := NewSI(ctx)
	for i := 0; i < 3; i++ {
		tx, err := p.Begin()
		if err != nil {
			t.Fatal(err)
		}
		p.Write(tx, tbl, "k", []byte{byte(i)})
		mustCommit(t, p, tx)
	}
}

// TestSyncCommitsGatedOnCapabilities: with SyncCommits requested, the
// group-commit leader asks the store for a sync point only when the
// store declares itself Durable.
func TestSyncCommitsGatedOnCapabilities(t *testing.T) {
	supports := newSyncRecorder(kv.Capabilities{Durable: true})
	commitThrough(t, supports, TableOptions{SyncCommits: true})
	if applies, anySync := supports.observed(); applies == 0 || !anySync {
		t.Errorf("durable store: applies=%d anySync=%v, want synced applies", applies, anySync)
	}

	volatileStore := newSyncRecorder(kv.Capabilities{})
	commitThrough(t, volatileStore, TableOptions{SyncCommits: true})
	if applies, anySync := volatileStore.observed(); applies == 0 || anySync {
		t.Errorf("volatile store: applies=%d anySync=%v, want applies with no sync request", applies, anySync)
	}

	// Without SyncCommits no sync point is requested either way.
	quiet := newSyncRecorder(kv.Capabilities{Durable: true})
	commitThrough(t, quiet, TableOptions{})
	if _, anySync := quiet.observed(); anySync {
		t.Error("sync point requested without SyncCommits")
	}
}

// TestTableCapabilities: CreateTable captures the store's flags, with
// the conservative default for stores that do not declare any. A context
// keeps one store, so each store gets a context of its own.
func TestTableCapabilities(t *testing.T) {
	memTbl, err := NewContext().CreateTable("m", kv.NewMem(), TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := memTbl.Capabilities(); got != (kv.Capabilities{}) {
		t.Errorf("mem table caps = %+v, want zero", got)
	}
	anon := struct{ kv.Store }{kv.NewMem()}
	anonTbl, err := NewContext().CreateTable("a", anon, TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := kv.Capabilities{Durable: true}
	if got := anonTbl.Capabilities(); got != want {
		t.Errorf("undeclared table caps = %+v, want %+v", got, want)
	}
}
