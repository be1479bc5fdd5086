package sistream

// The fail-stop gate: the storage and transaction layers must degrade,
// not crash. A panic in internal/txn or internal/lsm takes down the whole
// process — every lane, every group, every table — where the fail-stop
// design (Group.Err, lsm.ErrDBFailed) wants the failure contained to the
// poisoned group while reads keep serving. This AST gate enforces it
// mechanically: no `panic(` in non-test code under those packages outside
// a short, justified allowlist.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// panicAllowlist names the panic sites that are deliberately kept: a
// refcount underflow in the LSM version tracking is a programming error
// in the caller (an unref without a ref) whose continuation would
// double-free file handles under readers — memory-unsafety territory,
// where crashing IS the containment. Entries are "file base name" →
// maximum allowed panic calls in that file; the cap keeps the allowlist
// from silently absorbing new sites.
var panicAllowlist = map[string]int{
	"version.go": 2, // fileMeta/version refcount underflow guards
}

// parseNonTest parses the non-test source files of one package directory.
func parseNonTest(t *testing.T, dir string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files = append(files, f)
		}
	}
	return fset, files
}

// TestNoPanicsInFailStopLayers walks every non-test source file of
// internal/txn and internal/lsm and fails on any panic call not covered
// by the allowlist. Replace the panic with group/DB poisoning (see
// failstop.go) — or, if the site truly is a crash-worthy invariant,
// document why and extend the allowlist in the same change.
func TestNoPanicsInFailStopLayers(t *testing.T) {
	var violations []string
	counts := map[string]int{}
	for _, dir := range []string{"internal/txn", "internal/lsm"} {
		fset, files := parseNonTest(t, dir)
		for _, f := range files {
			for _, pos := range panicCalls(fset, f) {
				base := filepath.Base(pos.Filename)
				counts[base]++
				if counts[base] > panicAllowlist[base] {
					violations = append(violations,
						pos.Filename+":"+strconv.Itoa(pos.Line))
				}
			}
		}
	}
	if len(violations) > 0 {
		t.Fatalf("panic() in fail-stop layers (poison the group/DB instead, see internal/txn/failstop.go):\n  %s",
			strings.Join(violations, "\n  "))
	}
}

// TestNoPanicsInFusedStages keeps every non-test file of internal/stream
// free of panics — the fused stages, their consumer loop, the feed, the
// parallel regions and the window operators: an invalid construction
// argument (Punctuate, TransactionsWindow or TransactionsTuned, a change
// feed over an invalid partition count or a table in no group,
// Parallelize, Reparallelize, Apply, an operator on a merged region,
// MergeBatched, MergeTuned, the window sizes) is a construction error
// that Topology.fail records and Run returns, with no element emitted.
func TestNoPanicsInFusedStages(t *testing.T) {
	fset, files := parseNonTest(t, "internal/stream")
	var violations []string
	for _, f := range files {
		for _, pos := range panicCalls(fset, f) {
			violations = append(violations, pos.Filename+":"+strconv.Itoa(pos.Line))
		}
	}
	if len(violations) > 0 {
		t.Fatalf("panic() in internal/stream (record a construction error with Topology.fail instead):\n  %s",
			strings.Join(violations, "\n  "))
	}
}

// panicCalls returns the positions of the panic calls in f.
func panicCalls(fset *token.FileSet, f *ast.File) []token.Position {
	var sites []token.Position
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "panic" {
				sites = append(sites, fset.Position(call.Pos()))
			}
		}
		return true
	})
	return sites
}

// TestCommitProtocolExistsOnce keeps the consistency protocol (paper
// Section 4.3) from forking again: fail-stop, capability-gated sync and
// index maintenance each had to be patched twice while internal/txn
// carried a second copy of the commit sequence for transactions spanning
// groups, and BOCC's chain path registered its history by a rule of its
// own. The gate counts, over non-test internal/txn, the three calls only
// a commit pipeline makes — poisoning every group after a failed store
// Apply, publishing LastCTS, and the durability Apply — and fails, naming
// the functions, when any of them has more homes than the one pipeline
// (plus recovery, which restores LastCTS in CreateGroup, and the index
// backfill, whose Apply in CreateIndex is not a commit). The pipeline's
// Apply sits in no for or range statement: a commit batch is one store
// Apply, the structural half of the one-store rule (Context.CreateTable
// is the other). One level up, every Protocol entry method is declared
// once, on protocolBase: SI, S2PL and BOCC contribute rules to that one
// path, not entry points of their own.
func TestCommitProtocolExistsOnce(t *testing.T) {
	// One entry per call site, naming the enclosing function.
	var poisoners, publishers, appliers []string
	// commitBatch's Apply call sites, and those inside a loop.
	var batchApplies, loopedApplies int
	// Entry method name → receiver types declaring it.
	entries := map[string][]string{}
	for _, name := range []string{"Begin", "BeginReadOnly", "Read", "CommitState", "Commit", "CommitChain", "Abort"} {
		entries[name] = nil
	}
	_, files := parseNonTest(t, "internal/txn")
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			switch name := fd.Name.Name; {
			case name == "finishCommit" || name == "abortInternal":
				t.Errorf("%s is declared: a protocol's commit or abort tail is its settle rule on protocolBase", name)
			case fd.Recv != nil:
				if _, entry := entries[name]; entry {
					recv := fd.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						entries[name] = append(entries[name], id.Name)
					}
				}
			}
			// stack holds the enclosing nodes of the one being visited.
			var stack []ast.Node
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch sel.Sel.Name {
				case "failAllGroups":
					poisoners = append(poisoners, fd.Name.Name)
				case "Store":
					if recv, ok := sel.X.(*ast.SelectorExpr); ok && recv.Sel.Name == "lastCTS" {
						publishers = append(publishers, fd.Name.Name)
					}
				case "Apply":
					if len(call.Args) == 2 && fd.Name.Name != "CreateIndex" {
						appliers = append(appliers, fd.Name.Name)
					}
					if fd.Name.Name == "commitBatch" {
						batchApplies++
						if slices.ContainsFunc(stack, func(n ast.Node) bool {
							_, isFor := n.(*ast.ForStmt)
							_, isRange := n.(*ast.RangeStmt)
							return isFor || isRange
						}) {
							loopedApplies++
						}
					}
				}
				return true
			})
		}
	}
	functions := func(sites []string) []string {
		sort.Strings(sites)
		return slices.Compact(sites)
	}
	if len(poisoners) != 1 {
		t.Errorf("failAllGroups has %d call sites, want 1 (the pipeline's durability error exit): %v", len(poisoners), poisoners)
	}
	if batchApplies != 1 || loopedApplies != 0 {
		t.Errorf("commitBatch calls Apply at %d sites, %d of them in a for or range statement; want 1 and 0 (one store Apply per commit batch)", batchApplies, loopedApplies)
	}
	if fns := functions(publishers); len(fns) != 2 {
		t.Errorf("lastCTS.Store appears in %d functions, want 2 (recovery in CreateGroup, the commit pipeline): %v", len(fns), fns)
	}
	if fns := functions(appliers); len(fns) != 1 {
		t.Errorf("commit-path kv.Store.Apply is called from %d functions, want 1 (the commit pipeline): %v", len(fns), fns)
	}
	for name, recvs := range entries {
		if !slices.Equal(recvs, []string{"protocolBase"}) {
			t.Errorf("entry method %s is declared on %v, want exactly [protocolBase]", name, recvs)
		}
	}
}

// TestReclamationIsExplicit keeps version reclamation to its two
// places: Install reuses a written row's dead slots on demand, and
// Table.GC sweeps every row when its caller asks. A third trigger — a
// sweep the commit path runs by itself after some number of commits — was
// removed with no program setting it while every commit paid for its
// bookkeeping. The gate fails when the table sweep has a call site other
// than Table.GC, and when any function of consistency.go, the commit
// pipeline, calls GC or sweep.
func TestReclamationIsExplicit(t *testing.T) {
	var sweepers, pipeline []string
	fset, files := parseNonTest(t, "internal/txn")
	for _, f := range files {
		file := filepath.Base(fset.Position(f.Pos()).Filename)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "sweep" && sel.Sel.Name != "GC") {
					return true
				}
				if sel.Sel.Name == "sweep" {
					sweepers = append(sweepers, fd.Name.Name)
				}
				if file == "consistency.go" {
					pipeline = append(pipeline, fd.Name.Name+" calls "+sel.Sel.Name)
				}
				return true
			})
		}
	}
	if !slices.Equal(sweepers, []string{"GC"}) {
		t.Errorf("the table sweep is called from %v, want exactly [GC] (Table.GC): reclamation is Install's on demand and Table.GC's on request", sweepers)
	}
	if len(pipeline) > 0 {
		t.Errorf("the commit pipeline (consistency.go) sweeps: %v", pipeline)
	}
}

// TestGCHorizonHasOneInput keeps the garbage-collection horizon to one
// input, the active transactions' read cuts. A change feed once read
// every row it delivered back at its commit's snapshot, and to keep that
// read safe pinned its oldest undelivered commit into the horizon of the
// whole context — a second reclamation input that a stalled consumer held
// for every table. The feed now carries the committed values. The gate
// fails when Context.OldestActiveVersion reads a receiver field other
// than the clock and the transaction slots, and when an exported function
// or method of non-test internal/txn takes a Timestamp parameter, naming
// it: a caller that picks its own read timestamp reads at a cut no
// transaction slot pins, so the horizon may already have reclaimed what
// it asks for. Reads at a cut go through a Snapshot or a transaction.
func TestGCHorizonHasOneInput(t *testing.T) {
	_, files := parseNonTest(t, "internal/txn")
	found := false
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.Name != "OldestActiveVersion" || fd.Recv == nil || len(fd.Recv.List[0].Names) == 0 {
				continue
			}
			found = true
			recv := fd.Recv.List[0].Names[0].Name
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == recv {
					switch sel.Sel.Name {
					case "counter", "slotWords", "slots":
					default:
						t.Errorf("OldestActiveVersion folds in %s.%s: the GC horizon reads the clock and the transaction slots only", recv, sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
	if !found {
		t.Fatal("OldestActiveVersion is not declared in internal/txn")
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			for _, p := range fd.Type.Params.List {
				if id, ok := p.Type.(*ast.Ident); ok && id.Name == "Timestamp" {
					t.Errorf("%s takes a Timestamp parameter: an exported read at a caller's timestamp is unpinned; read through a Snapshot", qualifiedName(fd))
				}
			}
		}
	}
}

// qualifiedName names a declared function, a method as Type.Method.
func qualifiedName(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		typ := fd.Recv.List[0].Type
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		if id, ok := typ.(*ast.Ident); ok {
			return id.Name + "." + fd.Name.Name
		}
	}
	return fd.Name.Name
}

// methodCallSites maps each method name called (x.Name(...)) in the
// non-test files of dir to the functions containing the calls, one entry
// per call site.
func methodCallSites(t *testing.T, dir string) map[string][]string {
	t.Helper()
	sites := map[string][]string{}
	_, files := parseNonTest(t, dir)
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						sites[sel.Sel.Name] = append(sites[sel.Sel.Name], fd.Name.Name)
					}
				}
				return true
			})
		}
	}
	return sites
}

// TestLinkingOperatorsExistOnce keeps the paper's linking operators from
// forking again, one layer above TestCommitProtocolExistsOnce. The
// contract — a transaction reaches every state or none — is decided
// where TO_TABLE turns a COMMIT/ROLLBACK punctuation into
// CommitChain/Abort; that decision had three copies (the sequential
// operator, the Merge barrier's closure, the commit spine) which
// disagreed about a poisoned group, and TO_STREAM had two watchers of
// which only one pinned the GC horizon. The gate counts, over non-test
// internal/stream and internal/txn, the calls only those operators make
// and fails, naming the functions, when one of them gets a second home.
func TestLinkingOperatorsExistOnce(t *testing.T) {
	check := func(what string, got []string, want ...string) {
		t.Helper()
		sort.Strings(got)
		sort.Strings(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s: call sites in %v, want exactly %v", what, got, want)
		}
	}
	stream := methodCallSites(t, "internal/stream")
	// TO_TABLE's verdict: one call commits — a clean run of any length,
	// one transaction included, is a CommitChain — and the function making
	// it is the one that aborts a transaction on its final punctuation.
	// The other Abort callers end transactions they began themselves and
	// that no punctuation decides: Transactions (a failed Declare, a
	// transaction left open when the input ends) and TableJoin (its own
	// read-only lookups).
	check("TO_TABLE verdict (CommitState/CommitChain)",
		slices.Concat(stream["CommitState"], stream["CommitChain"]), "decide")
	check("Abort", stream["Abort"], "decide", "transactionsPipeline", "transactionsPipeline", "TableJoin")
	// TO_TABLE's write path: one function flushes a write set.
	check("TO_TABLE flush (WriteSegment/WriteBatch)",
		slices.Concat(stream["WriteSegment"], stream["WriteBatch"]), "flush")
	// TO_STREAM: one watcher, the partitioned feed.
	check("TO_STREAM watcher (WatchPartitioned)", stream["WatchPartitioned"], "FromTablePartitioned")
	check("TO_STREAM watcher (Group.Watch)", stream["Watch"])
	// Underneath, one function appends to a transaction's write set.
	check("write-set append (stateEntry.write)", methodCallSites(t, "internal/txn")["write"], "bufferWrites")
}

// fusedFuncs inspects the functions of non-test internal/stream that
// members names — "Recv.Method" for a method — and fails, naming the
// function, on a go statement, a channel type, a channel send or a call of
// consume or spawn: a fused stage runs in the goroutine of whichever
// operator consumes its stream, and owns none. It returns the selector
// names each member uses, for reachesVia.
func fusedFuncs(t *testing.T, what string, members ...string) map[string][]string {
	t.Helper()
	calls := make(map[string][]string, len(members))
	for _, m := range members {
		calls[m] = nil
	}
	found := map[string]bool{}
	_, files := parseNonTest(t, "internal/stream")
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := qualifiedName(fd)
			if _, member := calls[name]; !member {
				continue
			}
			found[name] = true
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt, *ast.ChanType, *ast.SendStmt:
					t.Errorf("%s has a goroutine or channel (%T): %s is a fused stage", name, n, what)
				case *ast.SelectorExpr:
					if callee := n.Sel.Name; callee == "consume" || callee == "spawn" {
						t.Errorf("%s calls %s: %s is a fused stage, not an operator goroutine", name, callee, what)
					} else {
						calls[name] = append(calls[name], callee)
					}
				}
				return true
			})
		}
	}
	for _, m := range members {
		if !found[m] {
			t.Errorf("%s is not declared in internal/stream", m)
		}
	}
	return calls
}

// reachesVia reports whether member name is, or calls, the method named
// target — directly or through other members of calls.
func reachesVia(calls map[string][]string, name, target string) bool {
	seen := map[string]bool{}
	var reaches func(name string) bool
	reaches = func(name string) bool {
		if seen[name] {
			return false
		}
		seen[name] = true
		if name == target || strings.HasSuffix(name, "."+target) {
			return true
		}
		for _, callee := range calls[name] {
			for m := range calls {
				if (m == callee || strings.HasSuffix(m, "."+callee)) && reaches(m) {
					return true
				}
			}
		}
		return false
	}
	return reaches(name)
}

// TestTransactionsStageIsFused keeps the TRANSACTIONS operator a fused
// stage. As a goroutine stage of its own it cost every serialized
// transaction two park/wake hand-offs — the stage woken by the consumer's
// decision, the consumer woken by the next transaction's elements. The
// gate fails when a function of the Transactions family spawns an operator
// (consume, spawn, a go statement) or declares a channel or sends on one —
// its only wait is the receive on a decision — and when one of the three
// forms does not reach transactionsPipeline, the one implementation.
func TestTransactionsStageIsFused(t *testing.T) {
	calls := fusedFuncs(t, "Transactions", "Stream.Transactions", "Stream.TransactionsWindow", "Stream.TransactionsTuned", "Stream.transactionsPipeline")
	for name := range calls {
		if !reachesVia(calls, name, "transactionsPipeline") {
			t.Errorf("%s does not reach transactionsPipeline, the one implementation", name)
		}
	}
}

// TestToTableStageIsFused keeps the TO_TABLE operator a fused stage. As an
// operator goroutine the sequential ToTable cost every transaction one
// more hop into its consumer, and two chained ToTables passed every
// transaction back and forth: the second one's decision woke the first
// one's Transactions wait. The gate fails when Stream.ToTable,
// ParallelRegion.ToTable or tableSink.stage spawns an operator (consume,
// spawn, a go statement) or declares a channel or sends on one, and when
// either ToTable does not build its stage with tableSink.stage, the one
// stage constructor.
func TestToTableStageIsFused(t *testing.T) {
	calls := fusedFuncs(t, "ToTable", "Stream.ToTable", "ParallelRegion.ToTable", "tableSink.stage")
	for _, name := range []string{"Stream.ToTable", "ParallelRegion.ToTable"} {
		if !reachesVia(calls, name, "stage") {
			t.Errorf("%s does not reach tableSink.stage, the one stage constructor", name)
		}
	}
}

// TestReadCutExistsOnce keeps the read cut a single rule. Snapshots once
// read every group at the minimum LastCTS over their groups while SI
// transactions read each group at its own; the minimum read a group below
// its cut, where reused version slots had already been overwritten. The
// gate fails when the GC pin — the value a read cut publishes — is stored
// by more than one function of non-test internal/txn, and when that code
// resolves a table by name (Context.Table) instead of using the *Table it
// holds.
func TestReadCutExistsOnce(t *testing.T) {
	var pinners, lookups []string
	_, files := parseNonTest(t, "internal/txn")
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch sel.Sel.Name {
				case "Store":
					if recv, ok := sel.X.(*ast.SelectorExpr); ok && recv.Sel.Name == "pinnedOldest" {
						pinners = append(pinners, fd.Name.Name)
					}
				case "Table":
					if len(call.Args) == 1 {
						lookups = append(lookups, fd.Name.Name)
					}
				}
				return true
			})
		}
	}
	sort.Strings(pinners)
	if fns := slices.Compact(pinners); len(fns) != 1 {
		t.Errorf("pinnedOldest.Store appears in %d functions, want 1 (the one pin routine): %v", len(fns), fns)
	}
	if len(lookups) > 0 {
		t.Errorf("Context.Table is called from %v: the transaction path holds the *Table it reads", lookups)
	}
}
