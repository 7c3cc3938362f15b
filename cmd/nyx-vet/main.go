// Command nyx-vet runs the repository's analyzer suite (internal/analysis):
// nodeterm, aliasret, lockheld, slicearg, opwrite, lockorder, and hotalloc —
// the machine-checked versions of the determinism, aliasing, locking, and
// hot-path allocation invariants the virtual-time design depends on. The
// nodeterm, lockheld, lockorder, and hotalloc checks are interprocedural:
// facts propagate through a whole-program call graph, and diagnostics carry
// the full call chain to the offending source site.
//
// Standalone (the mode CI uses):
//
//	go run ./cmd/nyx-vet ./...
//	nyx-vet [-json] [packages...]
//
// As a go vet tool (unit-checker protocol):
//
//	go build -o nyx-vet ./cmd/nyx-vet
//	go vet -vettool=$PWD/nyx-vet ./...
//
// Exit status is 0 when the tree is clean, 1 (standalone) or 2 (vettool)
// when diagnostics were reported.
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
	// `go vet -vettool` probes the tool identity with -V=full before
	// passing a config file; the reply must be "<name> version <id>".
	if len(os.Args) == 2 && strings.HasPrefix(os.Args[1], "-V") {
		fmt.Println("nyx-vet version nyx-v1")
		return
	}
	// The go command also probes `-flags` for the tool's analyzer flag
	// schema (a JSON array); nyx-vet exposes none.
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		fmt.Println("[]")
		return
	}
	if len(os.Args) == 2 && strings.HasSuffix(os.Args[1], ".cfg") {
		os.Exit(unitMode(os.Args[1]))
	}
	os.Exit(standalone(os.Args[1:]))
}

func standalone(args []string) int {
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
	pkgs, loader, loadTime, cached, err := analysis.LoadShared(wd, patterns...)
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
			LoadNs     int64      `json:"load_ns"`
			LoadCached bool       `json:"load_cached"`
			Diags      []jsonDiag `json:"diagnostics"`
		}
		out := jsonReport{LoadNs: loadTime.Nanoseconds(), LoadCached: cached, Diags: make([]jsonDiag, 0, len(diags))}
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

// vetConfig is the subset of the go vet unit-checker config nyx-vet needs.
// The go command writes one of these per package and invokes the tool with
// its path as the only argument.
type vetConfig struct {
	ID                        string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func unitMode(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nyx-vet:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "nyx-vet: parsing vet config:", err)
		return 1
	}
	// nyx-vet exports no facts, but the go command expects the output file
	// regardless.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "nyx-vet:", err)
			return 1
		}
	}
	// Facts-only dependency passes, and test variants (the invariants are
	// production-code contracts; tests legitimately use wall clocks), are
	// no-ops.
	if cfg.VetxOnly || strings.HasSuffix(cfg.ImportPath, ".test]") || strings.HasSuffix(cfg.ImportPath, "_test") {
		return 0
	}
	loader := analysis.NewLoader(cfg.Dir)
	pkgs, err := loader.Load(cfg.ImportPath)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "nyx-vet:", err)
		return 1
	}
	diags, err := analysis.Run(pkgs, analysis.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "nyx-vet:", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", loader.Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
