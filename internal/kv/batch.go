package kv

// OpKind discriminates batch operations.
type OpKind byte

// Batch operation kinds.
const (
	OpPut OpKind = iota
	OpDelete
)

// Op is one operation inside a Batch.
type Op struct {
	Kind  OpKind
	Key   []byte
	Value []byte // nil for deletes
	// Handle, when non-nil, is the caller's slot for this key (see
	// Handle); nil means the store looks the key up.
	Handle *Handle
}

// Handle is a caller-owned slot in which a store may remember where it
// keeps one key, so that the next write of that key through the same slot
// skips the store's own lookup. A caller that writes the same keys again
// and again — the commit path writes every table row through the row's
// handle — passes the same *Handle on every Op of that key
// (Batch.PutHandle, Batch.DeleteHandle). The zero Handle is empty.
//
// The contract: a store writes a handle only inside Apply, so the caller
// must not use one handle in two concurrent Applies; and a store trusts
// only a handle it filled itself and has not revoked since — a delete of
// the key revokes it, and so does Close. A store that keeps no per-key
// entries (the LSM store) ignores handles, and a wrapper that rebuilds
// batches (Fault, Cache) drops them: an empty, revoked or foreign handle
// only means the key is looked up.
type Handle struct {
	mem *memEntry // issued by a Mem: the entry holding the key's value
}

// Batch accumulates operations to be applied atomically via Store.Apply.
// The zero value is an empty batch ready for use. A Batch is not safe for
// concurrent mutation.
type Batch struct {
	ops []Op
}

// NewBatch returns a batch with capacity for n operations.
func NewBatch(n int) *Batch {
	return &Batch{ops: make([]Op, 0, n)}
}

// Put appends a put operation. Key and value are copied.
func (b *Batch) Put(key, value []byte) {
	b.ops = append(b.ops, Op{Kind: OpPut, Key: cloneBytes(key), Value: cloneBytes(value)})
}

// Delete appends a delete operation. Key is copied.
func (b *Batch) Delete(key []byte) {
	b.ops = append(b.ops, Op{Kind: OpDelete, Key: cloneBytes(key)})
}

// PutOwned appends a put operation WITHOUT copying key or value: the
// caller hands both over and must never modify them again — a store may
// retain the slices beyond Apply (the in-memory store keeps the value by
// reference). The group-commit path uses this to coalesce whole
// transaction batches with zero per-operation allocation; its values are
// immutable private write-set copies.
func (b *Batch) PutOwned(key, value []byte) {
	b.ops = append(b.ops, Op{Kind: OpPut, Key: key, Value: value})
}

// DeleteOwned appends a delete operation without copying the key (see
// PutOwned for the aliasing contract).
func (b *Batch) DeleteOwned(key []byte) {
	b.ops = append(b.ops, Op{Kind: OpDelete, Key: key})
}

// PutHandle is PutOwned with the caller's handle for key (see Handle).
func (b *Batch) PutHandle(key, value []byte, h *Handle) {
	b.ops = append(b.ops, Op{Kind: OpPut, Key: key, Value: value, Handle: h})
}

// DeleteHandle is DeleteOwned with the caller's handle for key; the
// delete revokes it.
func (b *Batch) DeleteHandle(key []byte, h *Handle) {
	b.ops = append(b.ops, Op{Kind: OpDelete, Key: key, Handle: h})
}

// Len returns the number of operations in the batch.
func (b *Batch) Len() int { return len(b.ops) }

// Ops exposes the accumulated operations for Store implementations.
// Callers must not mutate the returned slice.
func (b *Batch) Ops() []Op { return b.ops }

// Reset clears the batch for reuse, retaining capacity.
func (b *Batch) Reset() { b.ops = b.ops[:0] }

func cloneBytes(p []byte) []byte {
	if p == nil {
		return nil
	}
	c := make([]byte, len(p))
	copy(c, p)
	return c
}
