package coradd

import (
	"errors"
	"go/build"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// layers ranks the internal packages, low to high. A package may import
// packages of its own rank or below, never above. durable, the checkpoint
// envelope, ranks alone at the bottom: it frames opaque bytes and imports
// no package of the module. scenario sits above the designer it feeds and
// below the adaptive layers, but is importable only by the experiments,
// the commands and the root package; exp, the commands, the examples and
// the root package share the top rank.
var layers = [][]string{
	{"durable"},
	{"value", "par", "obs", "fault", "lp", "kmeans"},
	{"schema", "query", "bnb", "workload"},
	{"storage"},
	{"btree", "stats", "ssb", "apb"},
	{"cm"},
	{"corridx"},
	{"costmodel", "exec"},
	{"candgen", "ilp", "deploy", "feedback"},
	{"designer"},
	{"scenario"},
	{"adapt", "tenant"},
	{"server"},
}

const modulePath = "coradd"

// TestLayering walks the module's non-test import graph and fails on any
// edge that points up the rank table, on an internal package missing from
// it, on a product package importing scenario, and on anything but
// cmd/experiments importing exp.
func TestLayering(t *testing.T) {
	rank := map[string]int{}
	for r, names := range layers {
		for _, n := range names {
			rank[n] = r
		}
	}
	top := len(layers)
	// group names what an import path is ranked as: an internal package by
	// its first path element (internal/scenario/apbenv is scenario), every
	// other package in the module — and exp — as the top rank.
	group := func(path string) string {
		rest, ok := strings.CutPrefix(path, modulePath+"/internal/")
		if !ok {
			return ""
		}
		return strings.SplitN(rest, "/", 2)[0]
	}
	rankOf := func(path string) (int, bool) {
		g := group(path)
		if g == "" || g == "exp" {
			return top, true
		}
		r, ok := rank[g]
		return r, ok
	}

	imports := modulePackages(t)
	var bad []string
	for _, pkg := range sortedKeys(imports) {
		from, ok := rankOf(pkg)
		if !ok {
			bad = append(bad, pkg+" has no rank: add it to the layers table")
			continue
		}
		for _, imp := range imports[pkg] {
			if to, ok := rankOf(imp); ok && to > from {
				bad = append(bad, "upward edge "+pkg+" → "+imp)
			}
			switch group(imp) {
			case "scenario":
				if g := group(pkg); g != "scenario" && g != "exp" && !isProgram(pkg) {
					bad = append(bad, pkg+" → "+imp+": only exp, cmd/* and the root package may import scenario")
				}
			case "exp":
				if pkg != modulePath+"/cmd/experiments" {
					bad = append(bad, pkg+" → "+imp+": only cmd/experiments may import exp")
				}
			}
		}
	}
	for _, b := range bad {
		t.Error(b)
	}
}

// isProgram reports whether path is the root package or a command.
func isProgram(path string) bool {
	return path == modulePath || strings.HasPrefix(path, modulePath+"/cmd/")
}

// modulePackages maps every package of the module rooted at the current
// directory to its in-module, non-test imports. Nested modules (a
// directory with its own go.mod) and testdata are skipped.
func modulePackages(t *testing.T) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != "." {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		p, err := build.ImportDir(dir, 0)
		if err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		}
		path := modulePath
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		var own []string
		for _, imp := range p.Imports {
			if imp == modulePath || strings.HasPrefix(imp, modulePath+"/") {
				own = append(own, imp)
			}
		}
		out[path] = own
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) < len(layers) {
		t.Fatalf("found only %d packages: not run from the module root?", len(out))
	}
	return out
}

func sortedKeys(m map[string][]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
