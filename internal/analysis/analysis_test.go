package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func TestAppliesTo(t *testing.T) {
	cases := []struct {
		pkgs []string
		path string
		want bool
	}{
		{nil, "repro/internal/anything", true},
		{[]string{"repro/internal/core"}, "repro/internal/core", true},
		// Full import paths match exactly: a package that merely shares the
		// base name (the old matching rule) must not be gated.
		{[]string{"repro/internal/core"}, "othermod/internal/core", false},
		{[]string{"repro/internal/core"}, "core", false},
		{[]string{"repro/internal/core"}, "repro/internal/coverage", false},
		{[]string{"repro/internal/core", "repro/internal/vm"}, "repro/internal/vm", true},
	}
	for _, c := range cases {
		a := &Analyzer{Name: "x", PkgPaths: c.pkgs}
		if got := a.AppliesTo(c.path); got != c.want {
			t.Errorf("AppliesTo(%v, %q) = %v, want %v", c.pkgs, c.path, got, c.want)
		}
	}
}

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text string
		ok   bool
	}{
		{"//nyx:blocking buffered control channel, never full", true},
		{"//nyx:blocking", true},
		{"//nyx:blocking\tafter a tab", true},
		{"//nyx:blockingly", false},
		{"// nyx:blocking", false},                // directives allow no space after //
		{"//nyx:wallclock telemetry site", false}, // no analyzer reads this name
		{"// plain comment", false},
	}
	for _, c := range cases {
		if ok := isDirective(c.text); ok != c.ok {
			t.Errorf("isDirective(%q) = %v, want %v", c.text, ok, c.ok)
		}
	}
}

func TestDirectiveIndex(t *testing.T) {
	const src = `package p

//nyx:blocking doc directive covers the whole function
func f() {
	g()
}

func g() {
	h() //nyx:blocking same line
	//nyx:blocking line above
	h()
	h()
	//nyx:wallclock no analyzer reads this name
	h()
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	idx := indexDirectives(fset, []*ast.File{f})
	posAt := func(line int) token.Pos {
		return fset.File(f.Pos()).LineStart(line)
	}
	if !idx.allowed(fset, posAt(5)) {
		t.Error("function-doc directive should cover statements in the function")
	}
	if !idx.allowed(fset, posAt(9)) {
		t.Error("same-line directive should allow")
	}
	if !idx.allowed(fset, posAt(11)) {
		t.Error("line-above directive should allow")
	}
	if idx.allowed(fset, posAt(12)) {
		t.Error("directive two lines up must not allow, and g is not covered by f's doc directive")
	}
	if idx.allowed(fset, posAt(14)) {
		t.Error("a comment of another //nyx: name must not allow")
	}
}
