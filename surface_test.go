package tpcxiot

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// implicitMethods are interface methods the standard library calls on a
// value's behalf (fmt, errors, sort, net/http), so no file names them.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true, "ServeHTTP": true,
}

// surfaceAllowlist names the exported functions kept without a caller in a
// non-test file, each with the reason it stays.
var surfaceAllowlist = map[string]string{
	"RestartMember":  "replication: the restart path the replication oracle (ROADMAP 1(d)) and item 4 build on",
	"Compact":        "lsm: full merges that cross-package tests run to settle a store",
	"RetryStats":     "hbase: read by the root BenchmarkClusterSaturation",
	"NewMemDB":       "workload: the in-memory test double other packages' tests share",
	"DecodeKey":      "kvp: codec oracle for the tests and fuzzers",
	"DecodeValue":    "kvp: codec oracle for the tests and fuzzers",
	"BuildManifest":  "audit: the Figure 6 file check its tests run",
	"BytesPerSecond": "metrics: the paper's Equation 1, pinned by a paper-number test",
}

// TestExportedSurfaceHasCallers fails when an exported function or method
// declared under internal/ or cmd/ is named by no non-test file of the
// repository (the bench module, cmd/ and examples/ included) outside its own
// declaration. Such a function is reached only from tests: delete it, fold
// it into its caller, or unexport it. The match is by name, so a name shared
// with any other identifier counts as used.
func TestExportedSurfaceHasCallers(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ name, pos string }
	var decls []decl
	declIdents := map[*ast.Ident]bool{}
	used := map[string]bool{}
	var files []*ast.File

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		slash := filepath.ToSlash(path)
		if !strings.HasPrefix(slash, "internal/") && !strings.HasPrefix(slash, "cmd/") {
			return nil
		}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || implicitMethods[fd.Name.Name] {
				continue
			}
			declIdents[fd.Name] = true
			decls = append(decls, decl{fd.Name.Name, fset.Position(fd.Pos()).String()})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
				used[id.Name] = true
			}
			return true
		})
	}

	var unused []string
	uncalled := map[string]bool{}
	for _, d := range decls {
		if used[d.name] {
			continue
		}
		uncalled[d.name] = true
		if _, ok := surfaceAllowlist[d.name]; !ok {
			unused = append(unused, d.name+" ("+d.pos+")")
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d exported functions have no caller outside tests:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
	for name := range surfaceAllowlist {
		if !uncalled[name] {
			t.Errorf("allowlisted %s now has a caller outside tests (or is gone): drop it from surfaceAllowlist", name)
		}
	}
}
