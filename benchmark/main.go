// Command benchmark is the repository's end-to-end and per-layer benchmark.
// It builds the real cmd/recserve and cmd/kvserver, drives them over HTTP from
// one open-loop load-generator process on a fixed number of connections, checks
// what they answer, and prints every metric by name with its unit. A traced
// run adds the per-layer numbers, measured from outside the programs: an HTTP
// pass against the live server and an in-process pass that rebuilds the same
// store stack with a span-recording store at every boundary it can reach.
//
//	benchmark -workload all -seed 1            every workload, end-to-end metrics
//	benchmark -workload serve-warm -trace 1    one workload, per-layer metrics
//	benchmark compare a.json b.json            two result sets against the bounds
//	benchmark manifest                         BENCHMARK.json, from the harness's tables
//
// README.md has the metric and workload tables and how to read the output.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runDeadline bounds one workload's run; the contract allows 180 s.
const runDeadline = 170 * time.Second

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "manifest":
			os.Exit(manifestMain())
		case "spin":
			os.Exit(spinMain(os.Args[2:]))
		}
	}
	var (
		name    = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed    = flag.Uint64("seed", defaultSeed, "seed for the generated data and traces")
		seconds = flag.Float64("seconds", runSeconds, "seconds of timed windows per run")
		trace   = flag.Int("trace", 0, "1: the traced run (per-layer metrics); 0: the timed run (end-to-end metrics)")
		traced  = flag.Bool("traced", false, "same as -trace 1")
		outFile = flag.String("o", "", "append each run's full result to this JSON-lines file (input of compare)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if wl, ok := findWorkload(*name); ok {
		todo = []workload{wl}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s, all)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}

	// A signal or the deadline ends the run at once, wherever it is: stop
	// every child, wait for each, exit non-zero. (A timed window does not poll
	// a context.) If the harness itself is killed outright, the children's
	// parent-death signal does the same.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	ctx, cancelDeadline := context.WithTimeout(ctx, runDeadline*time.Duration(len(todo)))
	defer cancelDeadline()
	finished := make(chan struct{})
	go func() {
		select {
		case <-finished:
		case <-ctx.Done():
			fmt.Fprintln(os.Stderr, "benchmark: interrupted:", context.Cause(ctx))
			children.stopAll()
			os.Exit(1)
		}
	}()

	err := run(ctx, todo, *seed, *seconds, *traced || *trace == 1, *outFile)
	close(finished)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// findRepoRoot walks up from the working directory to the directory whose
// go.mod declares module vidrec — the repository under test.
func findRepoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if mod, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(mod), "\n") {
				if strings.TrimSpace(line) == "module vidrec" {
					return dir, nil
				}
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod declaring module vidrec above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

func run(ctx context.Context, todo []workload, seed uint64, seconds float64, traced bool, outFile string) error {
	root, err := findRepoRoot()
	if err != nil {
		return err
	}
	outRoot := filepath.Join(root, "benchmark", "out")
	binDir, buildTime, err := buildBinaries(ctx, root, outRoot)
	if err != nil {
		return err
	}
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	spinners := startSpinners(outRoot, logf)
	defer spinners.stop()
	failed := false
	for _, wl := range todo {
		cfg := &runConfig{
			wl: wl, seed: seed, seconds: seconds, traced: traced,
			outDir: filepath.Join(outRoot, wl.Name), binDir: binDir, buildS: buildTime.Seconds(),
			log: logf,
		}
		res, err := runWorkload(ctx, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.Name, err)
		}
		if err := report(os.Stdout, res); err != nil {
			return err
		}
		if outFile != "" {
			if err := appendResult(outFile, res); err != nil {
				return err
			}
		}
		if !res.Correct || res.Failed > 0 {
			failed = true
		}
	}
	if failed {
		return errors.New("output checks failed or operations failed (see the report above)")
	}
	return nil
}

// contractLine is the last line of a run's standard output.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the run for a reader — phases, checks, every metric by name
// with its unit and its in-run spread — and then the one-line JSON result,
// which carries exactly the end-to-end metrics of an untraced run or exactly
// the per-layer metrics of a traced one.
func report(w *os.File, res *runResult) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "== %s  seed=%d seconds=%g traced=%v\n", res.Workload, res.Seed, res.Seconds, res.Traced)
	for _, p := range res.Phases {
		fmt.Fprintf(bw, "phase %-22s ops_sent=%-7d ops_ok=%-7d ops_failed=%d\n", p.Name, p.OpsSent, p.OpsOK, p.OpsFailed)
	}
	for _, c := range res.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(bw, "check %s %-32s %s\n", verdict, c.Name, c.Detail)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(bw, "note  %s\n", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		if !strings.HasSuffix(name, ".spread") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(bw, "metric %-36s %14.4f %-6s", name, m.Value, m.Unit)
		if sp, ok := res.Metrics[name+".spread"]; ok {
			fmt.Fprintf(bw, " spread=%.3f", sp.Value)
		}
		fmt.Fprintln(bw)
	}
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	line := contractLine{Correct: res.Correct && res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was never measured", res.Workload, d.Name)
		}
		line.Metrics[d.Name] = m
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", enc)
	return bw.Flush()
}

func appendResult(path string, res *runResult) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	enc, err := json.Marshal(res)
	if err != nil {
		_ = f.Close() // nothing was written
		return err
	}
	if _, err := f.Write(append(enc, '\n')); err != nil {
		_ = f.Close() // the write error is the one reported
		return err
	}
	return f.Close()
}
