package kvtest

import (
	"testing"

	"sistream/internal/kv"
	"sistream/internal/lsm"
)

// TestConformance runs the contract suite against every store the
// repository ships, the fault wrapper around each terminal store
// included. CI runs it under -race with no -short as the named "kv
// conformance (race)" step.
func TestConformance(t *testing.T) {
	t.Run("mem", func(t *testing.T) {
		Run(t, Harness{
			Name: "mem",
			Open: func(t *testing.T) kv.Store { return kv.NewMem() },
		})
	})

	// The persistent store: crash simulation is close + reopen of the
	// same data directory (the LSM WAL replays the synced suffix).
	t.Run("lsm", func(t *testing.T) {
		var dir string
		Run(t, Harness{
			Name: "lsm",
			Open: func(t *testing.T) kv.Store {
				dir = t.TempDir()
				return openLSM(t, dir)
			},
			Reopen: func(t *testing.T, prev kv.Store) kv.Store {
				if err := prev.Close(); err != nil {
					t.Fatalf("close before reopen: %v", err)
				}
				return openLSM(t, dir)
			},
		})
	})

	// The fault wrapper simulates durability (durable image + volatile
	// overlay), so crash-and-recover is Fault.Reopen. fault+lsm puts
	// synced data where the LSM store's Scan hands out reused buffers.
	for _, c := range []struct {
		name  string
		inner func(t *testing.T) kv.Store
	}{
		{"fault+mem", func(*testing.T) kv.Store { return kv.NewMem() }},
		{"fault+lsm", func(t *testing.T) kv.Store { return openLSM(t, t.TempDir()) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			Run(t, Harness{
				Name: c.name,
				Open: func(t *testing.T) kv.Store { return kv.NewFault(c.inner(t)) },
				Reopen: func(t *testing.T, prev kv.Store) kv.Store {
					re, err := prev.(*kv.Fault).Reopen()
					if err != nil {
						t.Fatalf("fault reopen: %v", err)
					}
					return re
				},
			})
		})
	}
}

func openLSM(t *testing.T, dir string) kv.Store {
	t.Helper()
	db, err := lsm.Open(dir, lsm.Options{})
	if err != nil {
		t.Fatalf("open lsm %s: %v", dir, err)
	}
	return db
}
