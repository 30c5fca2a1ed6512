// Command vidlint is vidrec's in-tree static analyzer: it loads and
// type-checks every package in the module using only the standard library
// and runs the four discipline passes registered in internal/lint — the
// per-function checks (errcheck, goroutinecheck) and the call-graph
// dataflow suite (lockorder, ctxcheck).
//
// Usage:
//
//	vidlint [-format text|json] [-tests] [-pass name[,name...]] [-stats]
//	        [packages]
//
// With no package arguments (or "./..."), the whole module is linted.
// Package arguments are module-relative directory prefixes, e.g.
// "internal/kvstore". There is no suppression file: a finding is fixed or
// carries an inline escape hatch. -stats prints a per-pass table of finding
// and escape-hatch counts. The exit status is 1 when findings are reported,
// 2 when loading or type-checking fails, and 0 on a clean tree — so
// `go run ./cmd/vidlint ./...` slots directly into CI and the Makefile.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"vidrec/internal/lint"
)

func main() {
	var (
		format   = flag.String("format", "text", "output format: text or json")
		tests    = flag.Bool("tests", false, "also lint _test.go files")
		passList = flag.String("pass", "", "comma-separated passes to run (default: all)")
		list     = flag.Bool("list", false, "list registered passes and exit")
		stats    = flag.Bool("stats", false, "print per-pass finding/hatch counts")
	)
	flag.Parse()
	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "vidlint: unknown format %q (want text or json)\n", *format)
		os.Exit(2)
	}

	if *list {
		for _, p := range lint.Passes() {
			fmt.Printf("%-16s %s\n", p.Name, p.Doc)
		}
		return
	}

	passes, err := selectPasses(*passList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vidlint:", err)
		os.Exit(2)
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vidlint:", err)
		os.Exit(2)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vidlint:", err)
		os.Exit(2)
	}
	loader.IncludeTests = *tests
	units, err := loader.LoadModule()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vidlint:", err)
		os.Exit(2)
	}
	units = filterUnits(units, flag.Args())

	findings := lint.Run(units, passes)
	if *format == "json" {
		out := struct {
			Findings []lint.Finding   `json:"findings"`
			Stats    []lint.PassStats `json:"stats,omitempty"`
		}{Findings: findings}
		if out.Findings == nil {
			out.Findings = []lint.Finding{}
		}
		if *stats {
			out.Stats = lint.CollectStats(units, passes, findings)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "vidlint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
		if n := len(findings); n > 0 {
			fmt.Fprintf(os.Stderr, "vidlint: %d finding(s)\n", n)
		}
		if *stats {
			printStats(lint.CollectStats(units, passes, findings))
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// printStats renders the per-pass table for `make lint-stats`.
func printStats(stats []lint.PassStats) {
	fmt.Printf("%-16s %8s %8s\n", "pass", "findings", "hatches")
	var tf, th int
	for _, s := range stats {
		fmt.Printf("%-16s %8d %8d\n", s.Pass, s.Findings, s.Hatches)
		tf += s.Findings
		th += s.Hatches
	}
	fmt.Printf("%-16s %8d %8d\n", "total", tf, th)
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

func selectPasses(spec string) ([]*lint.Pass, error) {
	if spec == "" {
		return lint.Passes(), nil
	}
	var out []*lint.Pass
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		p := lint.PassByName(name)
		if p == nil {
			return nil, fmt.Errorf("unknown pass %q (use -list)", name)
		}
		out = append(out, p)
	}
	return out, nil
}

// filterUnits keeps units matching the module-relative prefixes in args.
// "./..." (or no args) keeps everything; "./x/..." and "x" both mean the
// subtree at x.
func filterUnits(units []*lint.Unit, args []string) []*lint.Unit {
	var prefixes []string
	for _, a := range args {
		a = strings.TrimSuffix(a, "...")
		a = strings.TrimSuffix(a, "/")
		a = strings.TrimPrefix(a, "./")
		if a == "" || a == "." {
			return units
		}
		prefixes = append(prefixes, filepath.ToSlash(a))
	}
	if len(prefixes) == 0 {
		return units
	}
	var out []*lint.Unit
	for _, u := range units {
		for _, p := range prefixes {
			if u.RelPath == p || strings.HasPrefix(u.RelPath, p+"/") {
				out = append(out, u)
				break
			}
		}
	}
	return out
}
