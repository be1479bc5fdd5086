package sistream

// The design-size record: BENCH_size.json holds, per package of this
// module, its non-test lines, test lines and exported names, and
// sistream.go's exported names, as a history with one entry per change.
// TestDesignSize recounts the tree and fails on any difference from the
// last entry, so a change that grows or shrinks a package says so by
// recording itself:
//
//	go test -run TestDesignSize . -args -record -change "what changed"
//
// appends an entry (or replaces the last one when it has the same label).
// The counts are deterministic, so unlike a timing this record cannot
// drift with the host.

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

var (
	recordSize = flag.Bool("record", false, "TestDesignSize: append the tree's counts to "+sizeFile)
	sizeChange = flag.String("change", "", "TestDesignSize: label of the entry -record writes")
)

const sizeFile = "BENCH_size.json"

// sizeRule says how the counts are taken; it is stored in the file.
const sizeRule = "per package directory of this module (nested modules, testdata and dot directories excluded): " +
	"lines = lines of non-test .go files that are neither blank nor //-only; " +
	"test_lines = the same over _test.go files; " +
	"exported = exported top-level funcs, types, vars and consts plus exported methods of exported types, non-test files"

type pkgSize struct {
	Lines     int `json:"lines"`
	TestLines int `json:"test_lines,omitempty"`
	Exported  int `json:"exported,omitempty"`
}

type sizeEntry struct {
	// Change names the change the entry records: a commit for entries
	// taken from older records, a short description otherwise.
	Change string `json:"change"`
	// From is "CHANGES.md" for an entry backfilled from the counts stated
	// there (lines only, only the packages stated); empty when measured.
	From            string             `json:"from,omitempty"`
	Packages        map[string]pkgSize `json:"packages"`
	SistreamExports []string           `json:"sistream_exports,omitempty"`
}

type sizeRecord struct {
	Rule    string      `json:"rule"`
	History []sizeEntry `json:"history"`
}

func TestDesignSize(t *testing.T) {
	got := measureSize(t)
	var rec sizeRecord
	data, err := os.ReadFile(sizeFile)
	if err != nil && !(*recordSize && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	if err == nil {
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatalf("%s: %v", sizeFile, err)
		}
	}
	if *recordSize {
		if *sizeChange == "" {
			t.Fatal("-record needs -change naming the change")
		}
		got.Change = *sizeChange
		rec.Rule = sizeRule
		if n := len(rec.History); n > 0 && rec.History[n-1].Change == got.Change {
			rec.History[n-1] = got
		} else {
			rec.History = append(rec.History, got)
		}
		out, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sizeFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(rec.History) == 0 {
		t.Fatalf("%s has no history", sizeFile)
	}
	if rec.Rule != sizeRule {
		t.Errorf("%s counts by another rule; re-record it", sizeFile)
	}
	last := rec.History[len(rec.History)-1]
	for _, d := range sizeDiff(last, got) {
		t.Error(d)
	}
	if t.Failed() {
		t.Logf("the tree differs from %s's last entry (%q); record the change with "+
			"go test -run TestDesignSize . -args -record -change <label>", sizeFile, last.Change)
	}
}

// sizeDiff lists, package by package, how got differs from want.
func sizeDiff(want, got sizeEntry) []string {
	var out []string
	pkgs := map[string]bool{}
	for p := range want.Packages {
		pkgs[p] = true
	}
	for p := range got.Packages {
		pkgs[p] = true
	}
	names := make([]string, 0, len(pkgs))
	for p := range pkgs {
		names = append(names, p)
	}
	sort.Strings(names)
	for _, p := range names {
		w, inWant := want.Packages[p]
		g, inGot := got.Packages[p]
		switch {
		case !inWant:
			out = append(out, fmt.Sprintf("%s: new package (%d lines), not recorded", p, g.Lines))
			continue
		case !inGot:
			out = append(out, fmt.Sprintf("%s: recorded (%d lines) but gone", p, w.Lines))
			continue
		}
		for _, c := range []struct {
			what      string
			got, want int
		}{{"lines", g.Lines, w.Lines}, {"test_lines", g.TestLines, w.TestLines}, {"exported", g.Exported, w.Exported}} {
			if c.got != c.want {
				out = append(out, fmt.Sprintf("%s: %s %d, recorded %d (%+d)", p, c.what, c.got, c.want, c.got-c.want))
			}
		}
	}
	var added, removed []string
	for _, n := range got.SistreamExports {
		if !slices.Contains(want.SistreamExports, n) {
			added = append(added, n)
		}
	}
	for _, n := range want.SistreamExports {
		if !slices.Contains(got.SistreamExports, n) {
			removed = append(removed, n)
		}
	}
	if len(added)+len(removed) > 0 {
		out = append(out, fmt.Sprintf("sistream.go exports: added %v, removed %v", added, removed))
	}
	return out
}

// measureSize counts every package directory under the module root.
func measureSize(t *testing.T) sizeEntry {
	t.Helper()
	e := sizeEntry{Packages: map[string]pkgSize{}}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." {
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module
			}
		}
		s, ok, err := packageSize(path)
		if ok {
			e.Packages[filepath.ToSlash(path)] = s
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "sistream.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	e.SistreamExports = exportedNames(f)
	sort.Strings(e.SistreamExports)
	return e
}

// packageSize counts the .go files directly in dir; ok is false when it
// has none.
func packageSize(dir string) (s pkgSize, ok bool, err error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		return s, false, err
	}
	fset := token.NewFileSet()
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			return s, false, err
		}
		n := codeLines(src)
		if strings.HasSuffix(name, "_test.go") {
			s.TestLines += n
			continue
		}
		s.Lines += n
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			return s, false, err
		}
		s.Exported += len(exportedNames(f))
	}
	return s, true, nil
}

// codeLines counts the lines that are neither blank nor a // comment.
func codeLines(src []byte) int {
	n := 0
	for _, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		if line != "" && !strings.HasPrefix(line, "//") {
			n++
		}
	}
	return n
}

// exportedNames returns f's exported top-level names and the exported
// methods of its exported types, as Type.Method.
func exportedNames(f *ast.File) []string {
	var out []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				out = append(out, d.Name.Name)
			} else if recv := receiverType(d.Recv.List[0].Type); ast.IsExported(recv) {
				out = append(out, recv+"."+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out = append(out, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							out = append(out, n.Name)
						}
					}
				}
			}
		}
	}
	return out
}

// receiverType returns the name of a method's receiver type, T or *T.
func receiverType(x ast.Expr) string {
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
