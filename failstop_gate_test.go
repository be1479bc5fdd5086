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
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn, ok := call.Fun.(*ast.Ident)
				if !ok || fn.Name != "panic" {
					return true
				}
				pos := fset.Position(call.Pos())
				base := filepath.Base(pos.Filename)
				counts[base]++
				if counts[base] > panicAllowlist[base] {
					violations = append(violations,
						pos.Filename+":"+strconv.Itoa(pos.Line))
				}
				return true
			})
		}
	}
	if len(violations) > 0 {
		t.Fatalf("panic() in fail-stop layers (poison the group/DB instead, see internal/txn/failstop.go):\n  %s",
			strings.Join(violations, "\n  "))
	}
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
	// TO_STREAM: one watcher, the GC-pinned partitioned feed.
	check("TO_STREAM watcher (WatchPartitioned)", stream["WatchPartitioned"], "FromTablePartitioned")
	check("TO_STREAM watcher (Group.Watch)", stream["Watch"])
	// Underneath, one function appends to a transaction's write set.
	check("write-set append (stateEntry.write)", methodCallSites(t, "internal/txn")["write"], "bufferWrites")
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
	// Family member → the family members it calls.
	family := map[string][]string{"Transactions": nil, "TransactionsWindow": nil, "TransactionsTuned": nil, "transactionsPipeline": nil}
	_, files := parseNonTest(t, "internal/stream")
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			if _, member := family[name]; !member {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt, *ast.ChanType, *ast.SendStmt:
					t.Errorf("%s has a goroutine or channel (%T): Transactions is a fused stage", name, n)
				case *ast.SelectorExpr:
					switch callee := n.Sel.Name; {
					case callee == "consume" || callee == "spawn":
						t.Errorf("%s calls %s: Transactions is a fused stage, not an operator goroutine", name, callee)
					default:
						if _, member := family[callee]; member {
							family[name] = append(family[name], callee)
						}
					}
				}
				return true
			})
		}
	}
	var reaches func(name string) bool
	reaches = func(name string) bool {
		return name == "transactionsPipeline" || slices.ContainsFunc(family[name], reaches)
	}
	for name := range family {
		if !reaches(name) {
			t.Errorf("%s does not reach transactionsPipeline, the one implementation", name)
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
