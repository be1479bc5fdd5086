package main

import (
	"bytes"
	"flag"
	"strings"
	"testing"
)

// TestFlagSurface pins sibench to the paper grid: four modes plus the
// cell parameters. A new flag has to replace one, not join them.
func TestFlagSurface(t *testing.T) {
	n := 0
	newFlags().VisitAll(func(*flag.Flag) { n++ })
	if n > 17 {
		t.Fatalf("sibench registers %d flags, want <= 17", n)
	}
}

// TestModesRun drives each of the four modes end to end at smoke size
// and checks the report it prints.
func TestModesRun(t *testing.T) {
	small := []string{"-duration", "50ms", "-tablesize", "500", "-backend", "mem"}
	for _, mode := range []struct {
		args []string
		want string
	}{
		{[]string{"-figure", "4"}, "Figure 4: contention sweep, concurrent ad-hoc queries = 24"},
		{[]string{"-claim", "c3"}, "violations=0"},
		{[]string{"-scaling"}, "Commit-path scaling: mvcc"},
		{[]string{"-cell"}, "protocol=mvcc backend=mem"},
	} {
		t.Run(strings.Join(mode.args, " "), func(t *testing.T) {
			var out bytes.Buffer
			if err := run(append(mode.args, small...), &out); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), mode.want) {
				t.Fatalf("report lacks %q:\n%s", mode.want, out.String())
			}
		})
	}
}
