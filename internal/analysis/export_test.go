package analysis

import "go/ast"

// Waiver is one //nyx:blocking directive comment of a loaded package.
type Waiver struct {
	PkgPath string
	Comment *ast.Comment
}

// Waivers lists every //nyx:blocking directive in pkgs; comments of other
// //nyx: names are not waivers.
func Waivers(pkgs []*Package) []Waiver {
	var ws []Waiver
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if isDirective(c.Text) {
						ws = append(ws, Waiver{pkg.PkgPath, c})
					}
				}
			}
		}
	}
	return ws
}

// RunMasked is Run with the directive comment c blanked for the run, as if
// it were not in the source.
func RunMasked(pkgs []*Package, analyzers []*Analyzer, c *ast.Comment) ([]Diagnostic, error) {
	text := c.Text
	c.Text = "//"
	defer func() { c.Text = text }()
	return Run(pkgs, analyzers)
}
