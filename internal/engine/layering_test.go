package engine

import (
	"os/exec"
	"strings"
	"testing"
)

// TestLayering pins the one-way rule between the model and the
// experiment driver: nothing engine builds on reaches the driver, the
// statistics and fault injection the driver uses, or the layers above
// it, while the driver imports engine.
func TestLayering(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	list := func(args ...string) map[string]bool {
		t.Helper()
		out, err := exec.Command(goTool, append([]string{"list"}, args...)...).Output()
		if err != nil {
			t.Fatalf("go list %s: %v", strings.Join(args, " "), err)
		}
		set := map[string]bool{}
		for _, p := range strings.Fields(string(out)) {
			set[p] = true
		}
		return set
	}
	deps := list("-deps", "repro/internal/engine")
	for _, pkg := range []string{"driver", "stats", "faultinject", "campaign", "api", "server", "resultcache"} {
		if deps["repro/internal/"+pkg] {
			t.Errorf("internal/engine depends on internal/%s", pkg)
		}
	}
	if !list("-f", `{{join .Imports " "}}`, "repro/internal/driver")["repro/internal/engine"] {
		t.Error("internal/driver does not import internal/engine")
	}
}
