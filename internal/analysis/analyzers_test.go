package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// Each fixture is a golden test: every flagged line carries a want comment,
// and the run fails both on a missing diagnostic (the analyzer regressed)
// and on an extra one (a false positive crept in).

func TestNoDetermFixture(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.NoDeterm, "repro/internal/core", "ndep")
}

func TestNoDetermIgnoresUngatedPackages(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.NoDeterm, "nodeterm/other")
}

// TestNoDetermIgnoresCollidingPackagePaths pins the full-path gating fix:
// othermod/internal/core shares its base name with the gated
// repro/internal/core but must not be analyzed.
func TestNoDetermIgnoresCollidingPackagePaths(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.NoDeterm, "othermod/internal/core")
}

func TestAliasRetFixture(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.AliasRet, "aliasret")
}

func TestLockHeldFixture(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.LockHeld, "repro/internal/campaign")
}

func TestLockHeldIgnoresUngatedPackages(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.LockHeld, "lockheld/other")
}

func TestSliceArgFixture(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.SliceArg, "slicearg")
}

func TestLockHeldNestingFixture(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.LockHeld, "repro/internal/service", "lodep")
}
