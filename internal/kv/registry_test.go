package kv_test

import (
	"strings"
	"testing"

	"sistream/internal/kv"
	_ "sistream/internal/lsm" // registers the "lsm" driver
)

func TestSpecParsingErrors(t *testing.T) {
	for _, spec := range []string{
		"",               // empty
		"  ",             // blank
		"+mem",           // empty layer
		"mem+",           // empty layer
		"nosuch",         // unknown driver
		"cache(256)+mem", // unknown driver: there is no cache tier
		"fault",          // wrapper as terminal
		"fault+fault",    // wrappers with no terminal
		"mem+mem",        // terminal wrapping
		"mem+fault+mem",  // terminal in wrapper position
		"fault(4",        // unclosed argument
		"mem(x)",         // mem takes no arg
		"fault(x)+mem",   // fault takes no arg
		"(4)+mem",        // missing driver name
	} {
		if _, err := kv.Open(spec, kv.OpenOptions{}); err == nil {
			t.Errorf("Open(%q) unexpectedly succeeded", spec)
		}
	}
	// CheckSpec must reject the structural errors without opening anything.
	if err := kv.CheckSpec("fault"); err == nil {
		t.Error("CheckSpec accepted a wrapper-terminated spec")
	}
	if err := kv.CheckSpec("nosuch"); err == nil {
		t.Error("CheckSpec accepted an unknown driver")
	}
	// lsm without any directory fails at Open time, not parse time.
	if err := kv.CheckSpec("lsm"); err != nil {
		t.Errorf("CheckSpec(lsm) = %v, want nil", err)
	}
	if _, err := kv.Open("lsm", kv.OpenOptions{}); err == nil {
		t.Error("Open(lsm) without a directory unexpectedly succeeded")
	}
}

func TestSpecCapabilities(t *testing.T) {
	cases := []struct {
		spec string
		want kv.Capabilities
	}{
		{"mem", kv.Capabilities{}},
		{"lsm", kv.Capabilities{Durable: true}},
		{"fault+mem", kv.Capabilities{Durable: true}},
		{"fault+lsm", kv.Capabilities{Durable: true}},
		{"fault+fault+mem", kv.Capabilities{Durable: true}},
	}
	for _, c := range cases {
		st, err := kv.Open(c.spec, kv.OpenOptions{Dir: t.TempDir()})
		if err != nil {
			t.Fatalf("Open(%q): %v", c.spec, err)
		}
		if got := st.Capabilities(); got != c.want {
			t.Errorf("Open(%q).Capabilities() = %+v, want %+v", c.spec, got, c.want)
		}
		// The chain's flags are its outermost store's.
		if got := kv.CapabilitiesOf(st); got != st.Capabilities() {
			t.Errorf("CapabilitiesOf disagrees with OpenedStore for %q: %+v", c.spec, got)
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
	// An unknown store keeps the pre-registry pass-through behavior.
	unknown := struct{ kv.Store }{kv.NewMem()}
	want := kv.Capabilities{Durable: true}
	if got := kv.CapabilitiesOf(unknown); got != want {
		t.Errorf("unknown-store caps = %+v, want %+v", got, want)
	}
}

func TestOpenChainLayers(t *testing.T) {
	st, err := kv.Open("fault+fault+mem", kv.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Spec() != "fault+fault+mem" {
		t.Errorf("Spec() = %q", st.Spec())
	}
	layers := st.Layers()
	if len(layers) != 3 {
		t.Fatalf("Layers() = %d stores, want 3", len(layers))
	}
	for i, l := range layers[:2] {
		if _, ok := l.(*kv.Fault); !ok {
			t.Errorf("layer %d is %T, want *kv.Fault", i, l)
		}
	}
	if _, ok := layers[2].(*kv.Mem); !ok {
		t.Errorf("terminal layer is %T, want *kv.Mem", layers[2])
	}
	// FaultLayer finds the outermost wrapper, and the chain works
	// through both.
	if st.FaultLayer() != layers[0] {
		t.Error("FaultLayer() is not the outermost fault wrapper")
	}
	b := kv.NewBatch(1)
	b.Put([]byte("k"), []byte("v"))
	if err := st.Apply(b, true); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := layers[2].Get([]byte("k")); err != nil || !ok || string(v) != "v" {
		t.Errorf("terminal Get(k) = %q, %v, %v after a synced Apply through the chain", v, ok, err)
	}
	// A plain spec has no fault layer to find.
	plain, err := kv.Open("mem", kv.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if plain.FaultLayer() != nil {
		t.Error("mem chain reports a fault layer")
	}
}

func TestOpenLSMSpecForms(t *testing.T) {
	// Inline dir and OpenOptions.Dir must both work.
	inline, err := kv.Open("lsm:"+t.TempDir(), kv.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := inline.Close(); err != nil {
		t.Fatal(err)
	}
	viaOpt, err := kv.Open("lsm", kv.OpenOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := viaOpt.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDriversListed(t *testing.T) {
	names := strings.Join(kv.Drivers(), ",")
	for _, want := range []string{"mem", "lsm", "fault"} {
		if !strings.Contains(names, want) {
			t.Errorf("Drivers() = %s, missing %q", names, want)
		}
	}
}
