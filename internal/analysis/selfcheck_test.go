package analysis_test

import (
	"testing"

	"repro/internal/analysis"
)

// loadRepo loads and type-checks every package of the repository.
func loadRepo(t *testing.T) ([]*analysis.Package, *analysis.Loader) {
	t.Helper()
	if testing.Short() {
		t.Skip("loads and type-checks the whole repository")
	}
	loader := analysis.NewLoader("../..")
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	return pkgs, loader
}

// TestRepoIsClean is the self-check the CI gate depends on: the full
// analyzer suite over the whole repository must report nothing. Every
// deliberate exception is annotated at its site with a //nyx: directive, so
// any new diagnostic is either a real invariant violation or a new
// exception that needs review and an annotation.
func TestRepoIsClean(t *testing.T) {
	pkgs, loader := loadRepo(t)
	diags, err := analysis.Run(pkgs, analysis.All())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s: %s", loader.Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}

// TestEveryWaiverIsNeeded keeps the exceptions TestRepoIsClean relies on
// honest: masking any one //nyx: waiver must make the suite report
// something new. A waiver that suppresses nothing, because the code it
// excused moved or no analyzer ever looks there, goes.
func TestEveryWaiverIsNeeded(t *testing.T) {
	pkgs, loader := loadRepo(t)
	base, err := analysis.Run(pkgs, analysis.All())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	waivers := analysis.Waivers(pkgs)
	if len(waivers) == 0 {
		t.Fatal("found no waivers")
	}
	for _, w := range waivers {
		diags, err := analysis.RunMasked(pkgs, analysis.All(), w.Comment)
		if err != nil {
			t.Fatalf("running analyzers: %v", err)
		}
		if len(diags) <= len(base) {
			t.Errorf("%s: %s suppresses nothing: delete it", loader.Fset.Position(w.Comment.Pos()), w.Comment.Text)
		}
	}
}
