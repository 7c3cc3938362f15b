package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// Each fixture is a golden test: every flagged line carries a want comment,
// and the run fails both on a missing diagnostic (the analyzer regressed)
// and on an extra one (a false positive crept in).

func TestLockHeldFixture(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.LockHeld, "repro/internal/store")
}

func TestLockHeldIgnoresUngatedPackages(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.LockHeld, "lockheld/other")
}

func TestLockHeldNestingFixture(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.LockHeld, "repro/internal/service", "lodep")
}
