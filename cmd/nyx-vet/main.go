// Command nyx-vet runs the repository's analyzer suite (internal/analysis):
// nodeterm, aliasret, lockheld and slicearg — the machine-checked
// versions of the determinism, aliasing, and locking invariants the
// virtual-time design depends on. The nodeterm and lockheld checks are
// interprocedural: facts
// propagate through a whole-program call graph, and diagnostics carry the
// full call chain to the offending source site.
//
// Usage (the form CI runs):
//
//	go run ./cmd/nyx-vet ./...
//	nyx-vet [-json] [packages...]
//
// Exit status is 0 when the tree is clean and 1 when diagnostics were
// reported or loading failed.
package main

import (
	"encoding/json"
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
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: nyx-vet [-json] [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			doc, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Fprintf(fs.Output(), "  %-10s %s\n", a.Name, doc)
		}
		fs.PrintDefaults()
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
	if *jsonOut {
		type jsonDiag struct {
			Pos      string `json:"pos"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		type jsonReport struct {
			Diags []jsonDiag `json:"diagnostics"`
		}
		out := jsonReport{Diags: make([]jsonDiag, 0, len(diags))}
		for _, d := range diags {
			out.Diags = append(out.Diags, jsonDiag{loader.Fset.Position(d.Pos).String(), d.Analyzer, d.Message})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		enc.Encode(out)
	} else {
		for _, d := range diags {
			fmt.Printf("%s: %s: %s\n", loader.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
