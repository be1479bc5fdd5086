package stream

// The recorded plan: construction-time hooks note one step per
// interesting decision — sources, operator fusion, lane regions and their
// key routing, reroute/fuse decisions at region boundaries, table
// writers, and the commit spine with its window. The plan is append-only
// and guarded by its own mutex, so Plan may be called at any moment:
// before Start, mid-run, or after Wait.

// PlanStep is one step of a topology's recorded plan (Topology.Plan).
type PlanStep struct {
	// Kind classifies the step: "source", "operator", "region", "table",
	// or "spine".
	Kind string
	// Name is the step's operator name as used in error attribution.
	Name string
	// Detail records the construction-time decision (window shape, lane
	// count, key routing, fusion verdict, ...). May be empty.
	Detail string
}

// note appends a plan step.
func (t *Topology) note(kind, name, detail string) {
	t.planMu.Lock()
	t.plan = append(t.plan, PlanStep{Kind: kind, Name: name, Detail: detail})
	t.planMu.Unlock()
}

// Plan returns a copy of the topology's recorded plan. Safe to call at
// any time, including while the topology runs.
func (t *Topology) Plan() []PlanStep {
	t.planMu.Lock()
	defer t.planMu.Unlock()
	return append([]PlanStep(nil), t.plan...)
}
