package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// The transitive golden cases hide their source two calls deep, so a
// finding must flow through at least one round of fact propagation to be
// seen. Running the same fixture with propagation disabled (round bound 0
// degrades the analyzer to its intraprocedural version) must lose exactly
// those findings: this proves both that the old direct-call checks miss
// them and that silently breaking the fact engine fails the golden
// fixtures, which expect the findings via want comments.
func TestTransitiveFindingsRequirePropagation(t *testing.T) {
	cases := []struct {
		name    string
		a       *analysis.Analyzer
		pkgPath string
		deps    []string
		marker  string // substring present only in the transitive finding
	}{
		{"lockheld", analysis.LockHeld, "repro/internal/store", nil,
			"call that may block: store.(*Bucket).emit → store.(*Bucket).relay"},
		{"lockheld-nesting", analysis.LockHeld, "repro/internal/service", []string{"lodep"},
			"call that may block: lodep.Acquire → lodep.enter"},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			full := analysistest.Diagnostics(t, "testdata", c.a, c.pkgPath, c.deps...)
			if !anyContains(full, c.marker) {
				t.Fatalf("with propagation, expected a diagnostic containing %q; got %q", c.marker, full)
			}

			restore := analysis.SetMaxPropagationRoundsForTest(0)
			defer restore()
			degraded := analysistest.Diagnostics(t, "testdata", c.a, c.pkgPath, c.deps...)
			if anyContains(degraded, c.marker) {
				t.Fatalf("without propagation, diagnostic containing %q should disappear; got %q", c.marker, degraded)
			}
		})
	}
}

func anyContains(msgs []string, sub string) bool {
	for _, m := range msgs {
		if strings.Contains(m, sub) {
			return true
		}
	}
	return false
}
