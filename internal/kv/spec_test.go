package kv

import (
	"slices"
	"strings"
	"testing"
)

// TestParseSpecNameEndsAtFirstDelimiter: a layer's driver name ends at its
// first ':' or '(', whichever comes first — an argument may contain the
// other delimiter, and both forms are trimmed of surrounding space.
func TestParseSpecNameEndsAtFirstDelimiter(t *testing.T) {
	for _, c := range []struct {
		spec string
		want []specLayer
	}{
		{"lsm:/data/run(1)", []specLayer{{"lsm", "/data/run(1)"}}},
		{"cache(8)+lsm:/tmp/a(b)", []specLayer{{"cache", "8"}, {"lsm", "/tmp/a(b)"}}},
		{"cache(a:b)+mem", []specLayer{{"cache", "a:b"}, {"mem", ""}}},
		{" cache ( 8 ) + fault + lsm : /d ", []specLayer{{"cache", "8"}, {"fault", ""}, {"lsm", "/d"}}},
		{"lsm:", []specLayer{{"lsm", ""}}},
		{"cache()+mem", []specLayer{{"cache", ""}, {"mem", ""}}},
	} {
		got, err := parseSpec(c.spec)
		if err != nil || !slices.Equal(got, c.want) {
			t.Errorf("parseSpec(%q) = %v, %v; want %v", c.spec, got, err, c.want)
		}
	}
	for _, spec := range []string{"a)b:c", "x)+mem", "lsm(/d", "(4)+mem", ":x"} {
		if got, err := parseSpec(spec); err == nil {
			t.Errorf("parseSpec(%q) = %v, want an error", spec, got)
		}
	}
}

// FuzzParseSpec: parsing never panics; every accepted layer has a
// non-empty, trimmed name free of the spec's delimiters; and rendering the
// layers back as name:arg parses to the same layers.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{"mem", "lsm:/data/run(1)", "cache(8)+lsm:/tmp/a(b)", "cache(4", "(4)+mem", " cache ( 8 )+fault+mem ", "a)b:c", "lsm:", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		layers, err := parseSpec(spec)
		if err != nil {
			return
		}
		rendered := make([]string, len(layers))
		for i, l := range layers {
			if l.name == "" || l.name != strings.TrimSpace(l.name) || strings.ContainsAny(l.name, ":()+") {
				t.Fatalf("parseSpec(%q) accepted layer name %q", spec, l.name)
			}
			rendered[i] = l.name + ":" + l.arg
		}
		again, err := parseSpec(strings.Join(rendered, "+"))
		if err != nil || !slices.Equal(again, layers) {
			t.Fatalf("parseSpec(%q) = %v; rendered as %q it parses to %v, %v", spec, layers, strings.Join(rendered, "+"), again, err)
		}
	})
}
