package bench

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sistream/internal/kv"
	"sistream/internal/txn"
)

func quickCfg(t *testing.T, proto, backend string) Config {
	t.Helper()
	cfg := Default()
	cfg.Protocol = proto
	cfg.Backend = backend
	cfg.TableSize = 2000
	cfg.Readers = 2
	cfg.Duration = 200 * time.Millisecond
	if backend == "lsm" {
		cfg.Dir = t.TempDir()
	}
	return cfg
}

func TestValidate(t *testing.T) {
	cfg := Default()
	cfg.Protocol = "nope"
	if _, err := Run(cfg); err == nil {
		t.Fatal("bad protocol accepted")
	}
	cfg = Default()
	cfg.Backend = "lsm"
	cfg.Dir = ""
	if _, err := Run(cfg); err == nil {
		t.Fatal("lsm without dir accepted")
	}
	cfg = Default()
	cfg.Backend = "banana"
	if _, err := Run(cfg); err == nil {
		t.Fatal("bad backend accepted")
	}
	cfg = Default()
	cfg.Readers, cfg.Writers = 0, 0
	cfg.Backend = "mem"
	if _, err := Run(cfg); err == nil {
		t.Fatal("zero workers accepted")
	}
}

func TestRunAllProtocolsMem(t *testing.T) {
	for _, proto := range []string{"mvcc", "s2pl", "bocc"} {
		t.Run(proto, func(t *testing.T) {
			res, err := Run(quickCfg(t, proto, "mem"))
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalTps <= 0 {
				t.Fatalf("no throughput: %+v", res)
			}
			if res.ReaderCommits == 0 {
				t.Fatal("no reader commits")
			}
			if res.WriterCommits == 0 {
				t.Fatal("no writer commits")
			}
		})
	}
}

func TestRunLSMBackend(t *testing.T) {
	res, err := Run(quickCfg(t, "mvcc", "lsm"))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTps <= 0 || res.WriterCommits == 0 {
		t.Fatalf("lsm cell empty: %+v", res)
	}
}

// TestConsistencyCheckerCleanUnderContention is claim C3: even at the
// paper's extreme contention (theta=2.9) no committed reader ever sees a
// torn multi-state snapshot, for any protocol.
func TestConsistencyCheckerCleanUnderContention(t *testing.T) {
	for _, proto := range []string{"mvcc", "s2pl", "bocc"} {
		t.Run(proto, func(t *testing.T) {
			cfg := quickCfg(t, proto, "mem")
			cfg.Theta = 2.9
			cfg.CheckConsistency = true
			cfg.Duration = 300 * time.Millisecond
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Violations != 0 {
				t.Fatalf("%d consistency violations", res.Violations)
			}
			if res.ReaderCommits == 0 {
				t.Fatal("checker proved nothing: no committed readers")
			}
		})
	}
}

// TestSIReadersDontAbort: under MVCC/SI with a single writer, ad-hoc
// readers must never abort (the paper's core robustness claim).
func TestSIReadersDontAbort(t *testing.T) {
	cfg := quickCfg(t, "mvcc", "mem")
	cfg.Theta = 2.9 // maximum contention
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReaderAborts != 0 {
		t.Fatalf("SI readers aborted %d times", res.ReaderAborts)
	}
}

// TestRunOnSurfacesFatalErrors: a sticky sync failure poisons the commit
// group, which is not an abort — the cell must stop and return the
// injected cause, not spin on it until the timer fires and report the
// surviving workers' throughput. The preload is the store's first
// durability point, the first writer commit its second.
func TestRunOnSurfacesFatalErrors(t *testing.T) {
	for _, failAt := range []int{1, 2} {
		cfg := quickCfg(t, "mvcc", "mem")
		cfg.Duration = 30 * time.Second // the error, not the timer, must end the cell
		badDisk := errors.New("injected: EIO")
		store := kv.NewFault(kv.NewMem())
		store.FailSyncAt(failAt, badDisk)
		res, err := runOn(cfg, store)
		if !errors.Is(err, badDisk) {
			t.Fatalf("fail at sync %d: runOn = %+v, %v; want the injected error", failAt, res, err)
		}
		if failAt > 1 && !errors.Is(err, txn.ErrGroupFailed) {
			t.Fatalf("fail at sync %d: %v does not wrap ErrGroupFailed", failAt, err)
		}
	}
}

func TestKeyString(t *testing.T) {
	if got := keyString(7, 4); got != "0007" {
		t.Fatalf("keyString(7,4) = %q", got)
	}
	if got := keyString(123456, 4); got != "3456" {
		t.Fatalf("keyString overflow = %q", got)
	}
	if len(keyString(0, 10)) != 10 {
		t.Fatal("width broken")
	}
}

func TestSweepAndReports(t *testing.T) {
	base := quickCfg(t, "mvcc", "mem")
	base.Duration = 100 * time.Millisecond
	results, err := Sweep(base, []string{"mvcc", "bocc"}, []float64{0, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("sweep produced %d cells", len(results))
	}
	var fig, csv, one bytes.Buffer
	PrintFigure(&fig, "test panel", results)
	if !strings.Contains(fig.String(), "MVCC Ktps") || !strings.Contains(fig.String(), "BOCC Ktps") {
		t.Fatalf("figure output:\n%s", fig.String())
	}
	PrintCSV(&csv, results)
	if n := strings.Count(csv.String(), "\n"); n != 5 { // header + 4 rows
		t.Fatalf("csv rows = %d", n)
	}
	PrintResult(&one, results[0])
	if !strings.Contains(one.String(), "protocol=mvcc") {
		t.Fatalf("result output:\n%s", one.String())
	}
}

// TestSweepFreshDirPerPersistentCell: every cell of a sweep over a
// chained persistent spec gets its own data directory — a second cell
// reopening the first one's directory would replay its data.
func TestSweepFreshDirPerPersistentCell(t *testing.T) {
	base := quickCfg(t, "mvcc", "cache(8)+lsm")
	base.Duration = 50 * time.Millisecond
	root := t.TempDir()
	dirFor := func(proto string, theta float64) string {
		return filepath.Join(root, fmt.Sprintf("%s-%g", proto, theta))
	}
	if _, err := Sweep(base, []string{"mvcc"}, []float64{0, 2}, dirFor); err != nil {
		t.Fatal(err)
	}
	cells, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("two-cell sweep opened %d directories, want 2", len(cells))
	}
}

func TestAbortRate(t *testing.T) {
	r := Result{ReaderCommits: 50, ReaderAborts: 25, WriterCommits: 20, WriterAborts: 5}
	if got := r.AbortRate(); got != 0.3 {
		t.Fatalf("abort rate = %g", got)
	}
	if (Result{}).AbortRate() != 0 {
		t.Fatal("empty abort rate should be 0")
	}
}
