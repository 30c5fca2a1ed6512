// Command vidlint is vidrec's in-tree static analyzer: it loads and
// type-checks every package in the module using only the standard library
// and runs the nine discipline passes registered in internal/lint — the
// per-function concurrency/error checks (lockcheck, atomiccheck, errcheck,
// goroutinecheck, clockcheck), the call-graph dataflow suite (lockorder,
// numcheck, ctxcheck) and the serving allocation budget (alloccheck).
//
// Usage:
//
//	vidlint [-format text|json] [-tests] [-pass name[,name...]]
//	        [-baseline file] [-prune] [-write-baseline file] [-stats]
//	        [packages]
//
// With no package arguments (or "./..."), the whole module is linted.
// Package arguments are module-relative directory prefixes, e.g.
// "internal/kvstore". -baseline suppresses the findings recorded in the
// given file (missing file = empty baseline); -write-baseline records the
// current findings there instead of failing, which is how a new pass lands
// before its backlog is burned down. The baseline can only shrink after
// that: entries that no longer match anything are an error (run -prune to
// rewrite the file down to the matched set), and -write-baseline refuses to
// regrow an existing baseline with new findings — new findings are fixed or
// hatched, never re-baselined. -stats prints a per-pass table of finding,
// baselined, and escape-hatch counts. The exit status is 1 when new findings
// (or stale baseline entries) are reported, 2 when loading or type-checking
// fails, and 0 on a clean tree — so `go run ./cmd/vidlint ./...` slots
// directly into CI and the Makefile.
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
		jsonOut  = flag.Bool("json", false, "shorthand for -format json")
		tests    = flag.Bool("tests", false, "also lint _test.go files")
		passList = flag.String("pass", "", "comma-separated passes to run (default: all)")
		list     = flag.Bool("list", false, "list registered passes and exit")
		baseline = flag.String("baseline", "", "suppress findings recorded in this baseline file")
		prune    = flag.Bool("prune", false, "rewrite the -baseline file keeping only entries that still match")
		writeBl  = flag.String("write-baseline", "", "write current findings to this baseline file and exit clean")
		stats    = flag.Bool("stats", false, "print per-pass finding/baselined/hatch counts")
	)
	flag.Parse()
	if *jsonOut {
		*format = "json"
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "vidlint: unknown format %q (want text or json)\n", *format)
		os.Exit(2)
	}
	if *prune && *baseline == "" {
		fmt.Fprintln(os.Stderr, "vidlint: -prune requires -baseline")
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

	all := lint.Run(units, passes)
	if *writeBl != "" {
		// The shrink-only rule: regenerating an existing baseline must not
		// smuggle new findings into it. Only a fresh file (a new pass's
		// initial backlog) may introduce entries.
		old, err := lint.LoadBaseline(*writeBl)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vidlint:", err)
			os.Exit(2)
		}
		if grown := old.NewKeys(all); old.Len() > 0 && len(grown) > 0 {
			fmt.Fprintf(os.Stderr, "vidlint: refusing to grow baseline %s with %d new finding(s); fix or hatch them:\n", *writeBl, len(grown))
			for _, k := range grown {
				fmt.Fprintf(os.Stderr, "  %s\n", strings.ReplaceAll(k, "\t", "  "))
			}
			os.Exit(1)
		}
		if err := lint.WriteBaseline(*writeBl, all); err != nil {
			fmt.Fprintln(os.Stderr, "vidlint:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "vidlint: wrote %d finding(s) to %s\n", len(all), *writeBl)
		return
	}

	findings := all
	stale := []string{}
	if *baseline != "" {
		bl, err := lint.LoadBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vidlint:", err)
			os.Exit(2)
		}
		findings = bl.Filter(all)
		if n := len(all) - len(findings); n > 0 {
			fmt.Fprintf(os.Stderr, "vidlint: %d baselined finding(s) suppressed\n", n)
		}
		stale = bl.Stale()
		if *prune {
			dropped, err := bl.Prune(*baseline)
			if err != nil {
				fmt.Fprintln(os.Stderr, "vidlint:", err)
				os.Exit(2)
			}
			fmt.Fprintf(os.Stderr, "vidlint: pruned %d stale entr(y/ies) from %s\n", dropped, *baseline)
			stale = nil
		}
	}

	if *format == "json" {
		out := struct {
			Findings []lint.Finding   `json:"findings"`
			Stale    []string         `json:"stale_baseline,omitempty"`
			Stats    []lint.PassStats `json:"stats,omitempty"`
		}{Findings: findings, Stale: stale}
		if out.Findings == nil {
			out.Findings = []lint.Finding{}
		}
		if *stats {
			out.Stats = lint.CollectStats(units, passes, all, findings)
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
		for _, k := range stale {
			fmt.Printf("%s: stale baseline entry (finding no longer produced) — run vidlint -prune\n", strings.ReplaceAll(k, "\t", " "))
		}
		if n := len(findings); n > 0 {
			fmt.Fprintf(os.Stderr, "vidlint: %d finding(s)\n", n)
		}
		if *stats {
			printStats(lint.CollectStats(units, passes, all, findings))
		}
	}
	if len(findings) > 0 || len(stale) > 0 {
		os.Exit(1)
	}
}

// printStats renders the per-pass table for `make lint-stats`.
func printStats(stats []lint.PassStats) {
	fmt.Printf("%-16s %8s %10s %8s\n", "pass", "findings", "baselined", "hatches")
	var tf, tb, th int
	for _, s := range stats {
		fmt.Printf("%-16s %8d %10d %8d\n", s.Pass, s.Findings, s.Baselined, s.Hatches)
		tf += s.Findings
		tb += s.Baselined
		th += s.Hatches
	}
	fmt.Printf("%-16s %8d %10d %8d\n", "total", tf, tb, th)
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
