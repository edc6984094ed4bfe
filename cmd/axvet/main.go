// Command axvet runs the repo's project-specific static-analysis
// suite (internal/analysis) over the module: determinism, cachekey,
// and ctxhygiene over the AST, and — with -bce — the bounds-check
// gate over the tiled kernels. It exits 1 when findings survive
// suppression, so CI can use it as a blocking job.
//
// Usage:
//
//	axvet [-json] [patterns...]   # AST analyzers; default ./internal/... ./cmd/...
//	axvet -bce [-json]            # bounds-check gate over internal/axnn and internal/nn
//	axvet -list                   # registered analyzers and their contracts
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis"
)

func main() {
	var (
		jsonOut = flag.Bool("json", false, "emit findings as a JSON array instead of vet-style lines")
		bce     = flag.Bool("bce", false, "run the bounds-check gate (go build -d=ssa/check_bce) instead of the AST analyzers")
		list    = flag.Bool("list", false, "list registered analyzers and exit")
		only    = flag.String("only", "", "run a single analyzer by name")
	)
	flag.Parse()

	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-12s %s\n", "bcegate", "(-bce) no bounds checks in gated kernel innermost loops")
		return
	}

	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		fatal(err)
	}

	var diags []analysis.Diagnostic
	if *bce {
		policy, err := analysis.LoadBCEPolicy(filepath.Join(root, "internal", "analysis", "bce_policy.txt"))
		if err != nil {
			fatal(err)
		}
		diags, err = analysis.RunBCE(root, policy, "./internal/axnn", "./internal/nn")
		if err != nil {
			fatal(err)
		}
	} else {
		patterns := flag.Args()
		if len(patterns) == 0 || (len(patterns) == 1 && patterns[0] == "./...") {
			patterns = []string{"./internal/...", "./cmd/..."}
		}
		loader, err := analysis.NewLoader(root)
		if err != nil {
			fatal(err)
		}
		pkgs, err := loader.Load(patterns...)
		if err != nil {
			fatal(err)
		}
		analyzers := analysis.Analyzers()
		if *only != "" {
			a, ok := analysis.ByName(*only)
			if !ok {
				fatal(fmt.Errorf("axvet: unknown analyzer %q", *only))
			}
			analyzers = []*analysis.Analyzer{a}
		}
		diags = analysis.Run(pkgs, analyzers)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
