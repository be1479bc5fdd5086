package kv

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// This file implements the backend adapter registry behind the paper's
// Section 4.1 design decision that "any existing backend structure with a
// key-value mapping can be used" as the base table. Backends register
// themselves by name (the LSM store self-registers as "lsm"; this package
// registers "mem" and "fault") and are resolved purely by spec string — a
// chain of adapters from the outermost wrapper to the terminal store:
//
//	mem                    volatile in-memory store
//	lsm:<dir>              persistent LSM store rooted at <dir>
//	lsm                    ... rooted at OpenOptions.Dir
//	fault+mem              fault-injection wrapper over the memory store
//	fault+fault+mem        wrappers stack, outermost first
//
// Layers are separated by '+', outermost first; every layer but the last
// must be a wrapper (Driver.Wrapper), and the last must be a terminal
// store. A layer's argument is written either as name(arg) or name:arg;
// the driver name ends at the layer's first ':' or '(', whichever comes
// first.

// Capabilities are what a store declares about itself (Capable). A
// wrapper declares its own from the store it wraps, so the outermost store
// of a chain speaks for the chain.
type Capabilities struct {
	// Durable: Apply(sync=true) and Sync are real durability points —
	// data they cover survives a process crash (for the fault wrapper, a
	// simulated one). The group-commit leader consults this flag: a
	// backend without it (the memory store) never gets a sync point
	// requested — the commit path skips the fsync honestly instead of
	// asking for one the backend would silently ignore.
	Durable bool
}

// Capable is implemented by stores that declare their capability flags.
type Capable interface {
	Capabilities() Capabilities
}

// CapabilitiesOf returns the store's declared capability flags. Stores
// that do not implement Capable get the conservative default — durable —
// so an unknown third-party store has its sync requests passed through.
func CapabilitiesOf(s Store) Capabilities {
	if c, ok := s.(Capable); ok {
		return c.Capabilities()
	}
	return Capabilities{Durable: true}
}

// Driver is one registered backend adapter.
type Driver struct {
	// Open instantiates the store. arg is the layer's spec argument
	// ("lsm:/data" passes "/data", "" when absent); opt carries
	// chain-wide defaults such as the data directory. Wrapper drivers
	// receive the already-opened next store in the chain as inner and own
	// it from then on (their Close must close it); terminal drivers
	// receive nil.
	Open func(arg string, opt OpenOptions, inner Store) (Store, error)
	// Wrapper marks chainable drivers that require an inner store.
	Wrapper bool
}

var (
	driverMu sync.RWMutex
	drivers  = make(map[string]Driver)
)

// Register makes a backend adapter available to Open under name. It
// panics on a duplicate or invalid registration — registrations happen
// in package init functions, where a conflict is a programming error.
func Register(name string, d Driver) {
	driverMu.Lock()
	defer driverMu.Unlock()
	if name == "" || strings.ContainsAny(name, "+():") {
		panic(fmt.Sprintf("kv: invalid driver name %q", name))
	}
	if d.Open == nil {
		panic(fmt.Sprintf("kv: driver %q missing Open", name))
	}
	if _, dup := drivers[name]; dup {
		panic(fmt.Sprintf("kv: driver %q registered twice", name))
	}
	drivers[name] = d
}

// Drivers returns the registered backend names, sorted.
func Drivers() []string {
	driverMu.RLock()
	defer driverMu.RUnlock()
	out := make([]string, 0, len(drivers))
	for name := range drivers {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func lookup(name string) (Driver, bool) {
	driverMu.RLock()
	defer driverMu.RUnlock()
	d, ok := drivers[name]
	return d, ok
}

// specLayer is one parsed layer of a chain spec.
type specLayer struct {
	name string
	arg  string
}

// parseSpec splits a chain spec into layers, outermost first. A layer's
// driver name ends at its first ':' or '(', whichever comes first, so an
// argument may itself contain either ("lsm:/data/run(1)"); name and
// argument are trimmed of surrounding space. It checks syntax only;
// driver existence and wrapper/terminal positions are checked by
// resolveSpec.
func parseSpec(spec string) ([]specLayer, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("kv: empty backend spec")
	}
	parts := strings.Split(spec, "+")
	layers := make([]specLayer, 0, len(parts))
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("kv: empty layer in backend spec %q", spec)
		}
		l := specLayer{name: part}
		if i := strings.IndexAny(part, ":("); i >= 0 {
			l.name, l.arg = part[:i], part[i+1:]
			if part[i] == '(' {
				if !strings.HasSuffix(l.arg, ")") {
					return nil, fmt.Errorf("kv: unclosed argument in backend spec layer %q", part)
				}
				l.arg = l.arg[:len(l.arg)-1]
			}
			l.name, l.arg = strings.TrimSpace(l.name), strings.TrimSpace(l.arg)
		}
		if l.name == "" {
			return nil, fmt.Errorf("kv: missing driver name in backend spec layer %q", part)
		}
		if strings.Contains(l.name, ")") {
			return nil, fmt.Errorf("kv: invalid driver name %q in backend spec layer %q", l.name, part)
		}
		layers = append(layers, l)
	}
	return layers, nil
}

// resolveSpec parses the spec and looks up every layer's driver,
// validating wrapper/terminal positions.
func resolveSpec(spec string) ([]specLayer, []Driver, error) {
	layers, err := parseSpec(spec)
	if err != nil {
		return nil, nil, err
	}
	ds := make([]Driver, len(layers))
	for i, l := range layers {
		d, ok := lookup(l.name)
		if !ok {
			return nil, nil, fmt.Errorf("kv: unknown backend driver %q in spec %q (registered: %s)",
				l.name, spec, strings.Join(Drivers(), ", "))
		}
		terminal := i == len(layers)-1
		if terminal && d.Wrapper {
			return nil, nil, fmt.Errorf("kv: backend spec %q ends in wrapper %q (a chain needs a terminal store, e.g. %q)",
				spec, l.name, spec+"+mem")
		}
		if !terminal && !d.Wrapper {
			return nil, nil, fmt.Errorf("kv: terminal store %q cannot wrap %q in spec %q", l.name, layers[i+1].name, spec)
		}
		ds[i] = d
	}
	return layers, ds, nil
}

// CheckSpec validates a backend spec against the registry — every layer's
// driver exists, wrappers wrap and the chain ends in a terminal store —
// without opening anything.
func CheckSpec(spec string) error {
	_, _, err := resolveSpec(spec)
	return err
}

// OpenOptions carries chain-wide defaults for Open.
type OpenOptions struct {
	// Dir is the default data directory for persistent layers whose spec
	// carries no explicit path argument ("lsm" instead of "lsm:<dir>").
	Dir string
}

// OpenedStore is the store resolved from a backend spec: the outermost
// store of the chain, and access to the individual layers for callers
// that reach one (the fault wrapper's scripting surface).
type OpenedStore struct {
	Store
	spec   string
	layers []Store
}

// Spec returns the spec string the store was opened from.
func (o *OpenedStore) Spec() string { return o.spec }

// Capabilities returns the chain's capability flags: the outermost
// store's.
func (o *OpenedStore) Capabilities() Capabilities { return CapabilitiesOf(o.Store) }

// Layers returns the chain's stores, outermost first. Closing the
// OpenedStore closes the whole chain (each wrapper owns its inner
// store); the layers are exposed for reading statistics and scripting
// faults, not for lifecycle management.
func (o *OpenedStore) Layers() []Store { return append([]Store(nil), o.layers...) }

// Open resolves a backend spec through the adapter registry and opens
// the chain, innermost store first. On error nothing stays open.
func Open(spec string, opt OpenOptions) (*OpenedStore, error) {
	layers, ds, err := resolveSpec(spec)
	if err != nil {
		return nil, err
	}
	var (
		inner  Store
		opened = make([]Store, len(layers))
	)
	for i := len(layers) - 1; i >= 0; i-- {
		s, err := ds[i].Open(layers[i].arg, opt, inner)
		if err != nil {
			if inner != nil {
				// The failed layer never took ownership of the chain
				// built so far; closing the innermost opened store
				// cascades through the wrappers above it.
				_ = inner.Close()
			}
			return nil, fmt.Errorf("kv: open %q layer %q: %w", spec, layers[i].name, err)
		}
		inner = s
		opened[i] = s
	}
	return &OpenedStore{Store: inner, spec: spec, layers: opened}, nil
}

// FaultLayer returns the chain's outermost fault wrapper, or nil.
func (o *OpenedStore) FaultLayer() *Fault {
	for _, s := range o.layers {
		if f, ok := s.(*Fault); ok {
			return f
		}
	}
	return nil
}

// The drivers this package ships: the terminal memory store and the
// chainable fault wrapper. The LSM store registers itself as "lsm" from
// internal/lsm (import it — directly or transitively — to use lsm
// specs).
func init() {
	Register("mem", Driver{
		Open: func(arg string, _ OpenOptions, _ Store) (Store, error) {
			if arg != "" {
				return nil, fmt.Errorf("mem driver takes no argument (got %q)", arg)
			}
			return NewMem(), nil
		},
	})
	Register("fault", Driver{
		Wrapper: true,
		Open: func(arg string, _ OpenOptions, inner Store) (Store, error) {
			if arg != "" {
				return nil, fmt.Errorf("fault driver takes no argument (got %q)", arg)
			}
			return NewFault(inner), nil
		},
	})
}
