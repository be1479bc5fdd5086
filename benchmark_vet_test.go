package sistream

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets keeps the nested benchmark/ module compiling.
// It is a module of its own (so the benchmark may pin exactly what it
// builds), which puts it outside the root's `go build ./... && go test
// ./...`: an engine API edit that breaks it would otherwise surface only
// when the benchmark is next run. `go vet` type-checks the module and its
// tests against this checkout's engine without running anything.
func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("vets a second module; skipped under -short")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	cmd := exec.Command(goTool, "-C", "benchmark", "vet", "./...")
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=readonly", "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go -C benchmark vet ./...: %v\n%s", err, out)
	}
}
