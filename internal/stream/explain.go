package stream

import (
	"fmt"
	"strings"
)

// EXPLAIN for running topologies: construction-time hooks record one
// plan node per interesting decision — sources, operator fusion, lane
// regions and their key routing, reroute/fuse decisions at region
// boundaries, table writers, and the commit spine with its tuner — and
// Explain renders the list together with LIVE figures (per-stage channel
// occupancy, writer counters, the tuner's in-flight bound) read at call
// time. The plan is append-only and guarded by its own mutex, so Explain
// may be called at any moment: before Start, mid-run, or after Wait.

// planNode is one recorded plan entry. live, when non-nil, is sampled at
// Plan/Explain time and must be safe to call concurrently with the
// running topology (atomic counters and channel len/cap reads are).
type planNode struct {
	kind   string
	name   string
	detail string
	live   func() string
}

// note appends a plan node; nil-safe on every construction path.
func (t *Topology) note(kind, name, detail string, live func() string) {
	t.planMu.Lock()
	t.plan = append(t.plan, &planNode{kind: kind, name: name, detail: detail, live: live})
	t.planMu.Unlock()
}

// PlanStep is one step of a topology's recorded plan (Topology.Plan): a
// construction-time Kind/Name/Detail triple plus the Live figures
// sampled when the plan was requested.
type PlanStep struct {
	// Kind classifies the step: "source", "operator", "region", "table",
	// or "spine".
	Kind string
	// Name is the step's operator name as used in error attribution.
	Name string
	// Detail records the construction-time decision (window shape, lane
	// count, key routing, fusion verdict, ...). May be empty.
	Detail string
	// Live holds the step's runtime figures at sampling time (channel
	// occupancy, writer counters, the tuner's in-flight bound, ...). Empty
	// when the step has none.
	Live string
}

// Plan returns the topology's recorded plan with live figures sampled
// now. Safe to call at any time, including while the topology runs.
func (t *Topology) Plan() []PlanStep {
	t.planMu.Lock()
	nodes := make([]*planNode, len(t.plan))
	copy(nodes, t.plan)
	t.planMu.Unlock()
	out := make([]PlanStep, len(nodes))
	for i, n := range nodes {
		out[i] = PlanStep{Kind: n.kind, Name: n.name, Detail: n.detail}
		if n.live != nil {
			out[i].Live = n.live()
		}
	}
	return out
}

// Explain renders a running (or finished, or not-yet-started) topology's
// plan as an aligned multi-line listing: one line per recorded step with
// its kind, name, construction-time decisions, and live figures sampled
// at call time. The output is for humans and diagnostics; programmatic
// consumers should use Topology.Plan.
func Explain(t *Topology) string {
	steps := t.Plan()
	var b strings.Builder
	fmt.Fprintf(&b, "topology %q (%d steps)\n", t.Name(), len(steps))
	kindW, nameW := 0, 0
	for _, s := range steps {
		if len(s.Kind) > kindW {
			kindW = len(s.Kind)
		}
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	for _, s := range steps {
		fmt.Fprintf(&b, "  %-*s  %-*s", kindW, s.Kind, nameW, s.Name)
		if s.Detail != "" {
			fmt.Fprintf(&b, "  %s", s.Detail)
		}
		if s.Live != "" {
			fmt.Fprintf(&b, "  [%s]", s.Live)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// occOf returns a live sampler of the streams' edge occupancy
// (buffered batches / capacity), the backpressure signal per stage.
func occOf(streams ...*Stream) func() string {
	return func() string {
		parts := make([]string, len(streams))
		for i, s := range streams {
			parts[i] = fmt.Sprintf("%d/%d", len(s.ch), cap(s.ch))
		}
		return "occ " + strings.Join(parts, " ")
	}
}
