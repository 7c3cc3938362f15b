// Command nyx-vet runs the repository's analyzer (internal/analysis):
// lockheld, the machine check that nothing blocks, taking another mutex
// included, while a service or store mutex is held. The check is
// interprocedural: may-block facts propagate through a whole-program call
// graph, and diagnostics carry the full call chain to the blocking site.
//
// Usage (the form CI runs):
//
//	go run ./cmd/nyx-vet ./...
//	nyx-vet [packages...]
//
// Exit status is 0 when the tree is clean and 1 when diagnostics were
// reported or loading failed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("nyx-vet", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: nyx-vet [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			doc, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Fprintf(fs.Output(), "  %-10s %s\n", a.Name, doc)
		}
	}
	fs.Parse(args)
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nyx-vet:", err)
		return 1
	}
	loader := analysis.NewLoader(wd)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nyx-vet:", err)
		return 1
	}
	diags, err := analysis.Run(pkgs, analysis.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "nyx-vet:", err)
		return 1
	}
	for _, d := range diags {
		fmt.Printf("%s: %s: %s\n", loader.Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
