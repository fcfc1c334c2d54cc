package repro_test

import (
	"go/parser"
	"go/token"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// importGraph is the whole internal package graph: each package under
// internal/ and the internal packages its non-test files import. The
// model leaves sit at the bottom, engine (one replicate) on them, the
// driver (Session, the grid, the fold) on engine, and the campaign,
// cache, wire and CLI layers on the driver. engine never reaches the
// driver, the statistics or fault injection.
var importGraph = map[string][]string{
	"burstbuffer": nil,
	"faultinject": nil,
	"jobsched":    nil,
	"metrics":     nil,
	"rng":         nil,
	"sim":         nil,
	"stats":       nil,
	"units":       nil,
	"ckpt":        {"units"},
	"platform":    {"units"},
	"failure":     {"rng"},
	"workload":    {"platform", "rng", "units"},
	"lowerbound":  {"platform", "workload"},
	"iomodel":     {"rng", "sim"},
	"iosched":     {"iomodel"},
	"engine": {"burstbuffer", "ckpt", "failure", "iomodel", "iosched", "jobsched",
		"lowerbound", "metrics", "platform", "rng", "sim", "units", "workload"},
	"driver": {"burstbuffer", "engine", "failure", "faultinject", "platform", "rng",
		"stats", "workload"},
	"campaign":    {"driver", "engine", "faultinject"},
	"resultcache": {"driver", "engine"},
	"api": {"burstbuffer", "campaign", "driver", "engine", "failure", "iomodel",
		"platform", "stats", "workload"},
	"server":  {"api", "campaign", "driver"},
	"cliutil": {"campaign", "driver", "engine", "platform", "resultcache"},
}

// TestImportGraph reads every internal package's non-test imports from
// source and holds them to importGraph exactly: an import the table does
// not declare fails, and so does a declared edge no file makes any more,
// as does a package missing from either side.
func TestImportGraph(t *testing.T) {
	const prefix = "repro/internal/"
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]map[string]bool{}
	fset := token.NewFileSet()
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		files, err := filepath.Glob(filepath.Join("internal", d.Name(), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			af, err := parser.ParseFile(fset, f, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			if got[d.Name()] == nil {
				got[d.Name()] = map[string]bool{}
			}
			for _, imp := range af.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if path == "repro" || strings.HasPrefix(path, "repro/") {
					got[d.Name()][strings.TrimPrefix(path, prefix)] = true
				}
			}
		}
	}
	for pkg, imports := range got {
		declared, ok := importGraph[pkg]
		if !ok {
			t.Errorf("internal/%s is not in importGraph", pkg)
			continue
		}
		want := map[string]bool{}
		for _, dep := range declared {
			want[dep] = true
		}
		for _, dep := range slices.Sorted(maps.Keys(imports)) {
			if !want[dep] {
				t.Errorf("internal/%s imports %s, which importGraph does not declare", pkg, dep)
			}
		}
		for _, dep := range declared {
			if !imports[dep] {
				t.Errorf("importGraph declares internal/%s -> %s, but no file makes that import", pkg, dep)
			}
		}
	}
	for pkg := range importGraph {
		if got[pkg] == nil {
			t.Errorf("importGraph declares internal/%s, which has no non-test Go file", pkg)
		}
	}
}
