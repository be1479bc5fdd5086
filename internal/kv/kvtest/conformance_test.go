package kvtest

import (
	"testing"

	"sistream/internal/kv"
	_ "sistream/internal/lsm" // registers the "lsm" driver
)

// TestConformance runs the contract suite against every registered
// backend spec, chained adapters included. CI runs it under -race with
// no -short as the named "kv conformance (race)" step.
func TestConformance(t *testing.T) {
	t.Run("mem", func(t *testing.T) {
		Run(t, Harness{
			Spec: "mem",
			Open: func(t *testing.T) *kv.OpenedStore { return mustOpen(t, "mem", "") },
		})
	})

	// The persistent store: crash simulation is close + reopen of the
	// same data directory (the LSM WAL replays the synced suffix).
	t.Run("lsm", func(t *testing.T) {
		var dir string
		Run(t, Harness{
			Spec: "lsm",
			Open: func(t *testing.T) *kv.OpenedStore {
				dir = t.TempDir()
				return mustOpen(t, "lsm", dir)
			},
			Reopen: func(t *testing.T, prev *kv.OpenedStore) kv.Store {
				if err := prev.Close(); err != nil {
					t.Fatalf("close before reopen: %v", err)
				}
				return mustOpen(t, "lsm", dir)
			},
		})
	})

	// Fault-wrapped chains: the wrapper simulates durability (durable
	// image + volatile overlay), so crash-and-recover is Fault.Reopen.
	// fault+lsm puts synced data where the LSM store's Scan hands out
	// reused buffers.
	for _, spec := range []string{"fault+mem", "fault+lsm"} {
		t.Run(spec, func(t *testing.T) {
			Run(t, Harness{
				Spec: spec,
				Open: func(t *testing.T) *kv.OpenedStore { return mustOpen(t, spec, t.TempDir()) },
				Reopen: func(t *testing.T, prev *kv.OpenedStore) kv.Store {
					f := prev.FaultLayer()
					if f == nil {
						t.Fatalf("spec %q has no fault layer", spec)
					}
					re, err := f.Reopen()
					if err != nil {
						t.Fatalf("fault reopen: %v", err)
					}
					return re
				},
			})
		})
	}
}

// TestConformanceCoversAllDrivers fails when a driver is registered but
// no conformance harness exercises it — the reminder to extend the
// table above when a new adapter lands.
func TestConformanceCoversAllDrivers(t *testing.T) {
	covered := map[string]bool{"mem": true, "lsm": true, "fault": true}
	for _, name := range kv.Drivers() {
		if !covered[name] {
			t.Errorf("driver %q has no conformance harness in conformance_test.go", name)
		}
	}
}

func mustOpen(t *testing.T, spec, dir string) *kv.OpenedStore {
	t.Helper()
	st, err := kv.Open(spec, kv.OpenOptions{Dir: dir})
	if err != nil {
		t.Fatalf("open %q: %v", spec, err)
	}
	return st
}
