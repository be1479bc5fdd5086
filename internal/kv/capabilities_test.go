package kv_test

import (
	"testing"

	"sistream/internal/kv"
	"sistream/internal/lsm"
)

// TestStoreCapabilities: each store declares its durability flag — mem
// none; lsm and the fault wrapper, around any store, durable.
func TestStoreCapabilities(t *testing.T) {
	openLSM := func(t *testing.T) kv.Store {
		db, err := lsm.Open(t.TempDir(), lsm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	for _, c := range []struct {
		name string
		open func(t *testing.T) kv.Store
		want kv.Capabilities
	}{
		{"mem", func(*testing.T) kv.Store { return kv.NewMem() }, kv.Capabilities{}},
		{"lsm", openLSM, kv.Capabilities{Durable: true}},
		{"fault+mem", func(*testing.T) kv.Store { return kv.NewFault(kv.NewMem()) }, kv.Capabilities{Durable: true}},
		{"fault+lsm", func(t *testing.T) kv.Store { return kv.NewFault(openLSM(t)) }, kv.Capabilities{Durable: true}},
		{"fault+fault+mem", func(*testing.T) kv.Store { return kv.NewFault(kv.NewFault(kv.NewMem())) }, kv.Capabilities{Durable: true}},
	} {
		st := c.open(t)
		if got := kv.CapabilitiesOf(st); got != c.want {
			t.Errorf("CapabilitiesOf(%s) = %+v, want %+v", c.name, got, c.want)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCapabilitiesOfDefaults(t *testing.T) {
	if got := kv.CapabilitiesOf(kv.NewMem()); got != (kv.Capabilities{}) {
		t.Errorf("mem caps = %+v, want zero", got)
	}
	// A store that declares nothing has its sync requests passed through.
	unknown := struct{ kv.Store }{kv.NewMem()}
	want := kv.Capabilities{Durable: true}
	if got := kv.CapabilitiesOf(unknown); got != want {
		t.Errorf("unknown-store caps = %+v, want %+v", got, want)
	}
}
