package txn

import (
	"errors"
	"fmt"
)

// This file implements the engine's fail-stop failure model. The commit
// protocol's correctness rests on one rule: the in-memory version store
// must never diverge from what a restart would recover from the base
// stores. Any failure that could break that rule — a durability Apply
// error (the fsyncgate hazard: after a failed fsync the page cache's
// state is unknowable) or an install invariant trip mid-batch — poisons
// every affected Group instead of being retried or papered over. A
// poisoned group refuses all further commits with a sticky wrapped
// ErrGroupFailed while reads (and read-only transactions) keep serving —
// graceful degradation to read-only until the process restarts and
// recovery reconciles from the durable watermarks.

// ErrGroupFailed is the sticky fail-stop error of a poisoned commit
// group: after a durability or install failure, every subsequent commit
// touching the group fails fast wrapping this sentinel (errors.Is). The
// original cause stays in the chain — Group.Err returns the full wrapped
// error. Reads are unaffected.
var ErrGroupFailed = errors.New("txn: commit group failed (fail-stop)")

// groupFailure is the immutable record of a group's first fatal error.
// wrapped is precomputed so the hot-path Err check stays allocation-free.
type groupFailure struct {
	cause   error
	wrapped error
}

// Err reports the group's sticky fail-stop state: nil while healthy,
// otherwise an error wrapping both ErrGroupFailed and the original cause
// (durability failure, install invariant trip). Once non-nil it never
// becomes nil again; the only way forward is restart + recovery.
func (g *Group) Err() error {
	if f := g.failure.Load(); f != nil {
		return f.wrapped
	}
	return nil
}

// fail poisons the group with cause. The first cause wins; later calls
// are no-ops, so Err always reports the error that actually broke the
// group.
func (g *Group) fail(cause error) {
	g.failure.CompareAndSwap(nil, &groupFailure{
		cause:   cause,
		wrapped: fmt.Errorf("%w: %w", ErrGroupFailed, cause),
	})
}

// failAllGroups poisons every group of the context. A failed durability
// Apply leaves the one base store in an unknowable state, and every group
// of the context commits into that store: any of them committing on would
// re-diverge memory from disk. The registry is scanned under its read
// latch; group membership is immutable after CreateGroup, so the scan is
// race-free.
func (c *Context) failAllGroups(cause error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, g := range c.groups {
		g.fail(cause)
	}
}

// poisonBatch is the commit pipeline's one error exit (see commitBatch):
// cause poisons every latched group BEFORE the batch's requests are
// decided with the sticky error, which wraps ErrGroupFailed and cause
// alike. A failed durability Apply poisons the rest of the context first
// (failAllGroups); an install-invariant trip, which no store saw, stays
// with the latched groups.
func (p *protocolBase) poisonBatch(groups []*Group, reqs []*commitReq, cause error) {
	for _, g := range groups {
		g.fail(cause)
	}
	p.failReqs(reqs, groups[0].Err())
}

// failReqs records the fail-stop verdict on a slice of commit requests:
// each transaction is aborted and its owner woken with err. Versions a
// partially processed batch may already have installed stay invisible
// forever — LastCTS is never published for a failed batch and the group
// is poisoned, so no later publish can expose them.
func (p *protocolBase) failReqs(reqs []*commitReq, err error) {
	for _, req := range reqs {
		req.err = err
		_ = p.abort(req.tx) // ErrFinished only; the verdict is err
		req.decided()
	}
}
