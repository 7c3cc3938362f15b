package analysis_test

import (
	"go/ast"
	"go/parser"
	"path/filepath"
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
// honest: masking any one //nyx:blocking waiver must make the suite report
// something new. A waiver that suppresses nothing, because the code it
// excused moved or no analyzer ever looks there, goes. The repository
// needs no waiver today, so the same check runs on the lockheld fixtures,
// whose reviewed sites show that it finds waivers and that masking bites.
func TestEveryWaiverIsNeeded(t *testing.T) {
	repo, _ := loadRepo(t)
	fixtures := loadFixtures(t, "lodep", "repro/internal/service", "repro/internal/store")
	if len(analysis.Waivers(fixtures)) == 0 {
		t.Fatal("found no waivers in the fixtures")
	}
	for _, pkgs := range [][]*analysis.Package{repo, fixtures} {
		base, err := analysis.Run(pkgs, analysis.All())
		if err != nil {
			t.Fatalf("running analyzers: %v", err)
		}
		for _, w := range analysis.Waivers(pkgs) {
			diags, err := analysis.RunMasked(pkgs, analysis.All(), w.Comment)
			if err != nil {
				t.Fatalf("running analyzers: %v", err)
			}
			if len(diags) <= len(base) {
				t.Errorf("%s: %s suppresses nothing: delete it", pkgs[0].Fset.Position(w.Comment.Pos()), w.Comment.Text)
			}
		}
	}
}

// loadFixtures type-checks the fixture packages under testdata/src, in the
// order given (a fixture's imports come first), with a loader of their own:
// their paths shadow the repository's.
func loadFixtures(t *testing.T, paths ...string) []*analysis.Package {
	t.Helper()
	loader := analysis.NewLoader("testdata")
	var pkgs []*analysis.Package
	for _, path := range paths {
		dir := filepath.Join("testdata", "src", filepath.FromSlash(path))
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(names) == 0 {
			t.Fatalf("fixture %s: no files (%v)", path, err)
		}
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(loader.Fset, name, nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		pkg, err := loader.CheckFiles(path, files)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}
