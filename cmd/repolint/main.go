// Command repolint runs the repository's custom static-analysis suite
// (internal/lint) over the whole module and fails on any finding. It is
// the machine check behind the contracts the code otherwise states only
// in comments: deterministic packages take time and randomness explicitly
// (detsource), map iteration never shapes output or hashes (maporder),
// workload factories never read cfg.Ambient (ambientread), scratch-
// aliased tick results never outlive their tick (scratchalias), every
// field hashed into scenario store keys carries a deliberate json tag
// (hashedfield), and every declaration under internal/ has a caller
// outside the tests (testonly).
//
// Usage:
//
//	repolint [-C dir] [-analyzers a,b,...] [-list]
//
// Findings print as file:line:col: [analyzer] message, position-sorted.
// Exit status: 0 clean, 1 findings, 2 load/type errors. Suppress a false
// positive in place with `//lint:ignore <analyzer> <reason>` on or above
// the flagged line; the reason is mandatory.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	dir := flag.String("C", ".", "module root to analyze (directory containing go.mod)")
	names := flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *names != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		var subset []*lint.Analyzer
		for _, n := range strings.Split(*names, ",") {
			a, ok := byName[strings.TrimSpace(n)]
			if !ok {
				fmt.Fprintf(os.Stderr, "repolint: unknown analyzer %q\n", n)
				os.Exit(2)
			}
			subset = append(subset, a)
		}
		analyzers = subset
	}

	prog, err := lint.Load(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
		os.Exit(2)
	}
	diags := lint.RunAll(prog, analyzers)
	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		fmt.Printf("%s:%d:%d: [%s] %s\n", relPath(prog.Root, pos.Filename), pos.Line, pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d finding(s) across %d packages\n", len(diags), len(prog.Packages))
		os.Exit(1)
	}
	fmt.Printf("repolint: %d packages, %d analyzers, clean\n", len(prog.Packages), len(analyzers))
}

// relPath shortens an absolute position path to be module-relative.
func relPath(root, path string) string {
	if strings.HasPrefix(path, root+string(os.PathSeparator)) {
		return path[len(root)+1:]
	}
	return path
}
