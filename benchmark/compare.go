package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), so a spread
// computed here is the spread the acceptance pipeline computes. v needs at
// least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	m := len(s)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		delta := i*(m+1) - j*4
		j = min(max(j, 1), m-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// resultSet is one file of runs: per workload, per end-to-end metric, the
// value of every untraced run and the largest in-run spread recorded beside
// them.
type resultSet map[string]map[string]*metricRuns

type metricRuns struct {
	values   []float64
	inRunMax float64
}

func loadResultSet(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only descriptor
	set := make(resultSet)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var run runResult
		if err := json.Unmarshal([]byte(text), &run); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if run.Traced {
			continue
		}
		byMetric := set[run.Workload]
		if byMetric == nil {
			byMetric = make(map[string]*metricRuns)
			set[run.Workload] = byMetric
		}
		for _, def := range endToEnd {
			m, ok := run.Metrics[def.Name]
			if !ok {
				return nil, fmt.Errorf("%s:%d: run of %s has no %s", path, line, run.Workload, def.Name)
			}
			mr := byMetric[def.Name]
			if mr == nil {
				mr = &metricRuns{}
				byMetric[def.Name] = mr
			}
			mr.values = append(mr.values, m.Value)
			mr.inRunMax = math.Max(mr.inRunMax, run.Metrics[def.Name+".spread"].Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no untraced run in it", path)
	}
	return set, nil
}

// spread is the noise the set shows for one metric: with four or more runs,
// the distance between their quartiles as a share of their median; with
// fewer, the widest in-run window spread recorded beside the values.
func (m *metricRuns) spread() float64 {
	if len(m.values) >= 4 {
		q1, q3 := quartiles(m.values)
		if med := median(m.values); med != 0 {
			return (q3 - q1) / math.Abs(med)
		}
	}
	return m.inRunMax
}

const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares B against A for one metric. The noise is judged first: where
// either set's spread is wider than the bound, a difference inside the bound
// cannot be told from no difference, and the pair is unresolved, not ok.
func judge(def metricDef, a, b *metricRuns) (string, float64) {
	ma, mb := median(a.values), median(b.values)
	worse := (mb - ma) / math.Abs(ma)
	if def.Better == higher {
		worse = -worse
	}
	switch {
	case math.Max(a.spread(), b.spread()) > def.Bound:
		return verdictUnresolved, worse
	case worse > def.Bound:
		return verdictRegressed, worse
	}
	return verdictOK, worse
}

// compareMain implements "benchmark compare A.json B.json". It exits 1 when
// any (workload, end-to-end metric) pair regressed and 2 on bad usage or
// unreadable input.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json   (files written with -o; A is the baseline)")
		return 2
	}
	a, err := loadResultSet(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	b, err := loadResultSet(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	names := make([]string, 0, len(a))
	for w := range a {
		names = append(names, w)
	}
	sort.Strings(names)
	counts := map[string]int{}
	fmt.Printf("%-14s %-22s %14s %14s %8s %8s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "worse", "spreadA", "spreadB", "bound", "verdict")
	for _, w := range names {
		if b[w] == nil {
			fmt.Printf("%-14s missing from %s\n", w, args[1])
			counts[verdictUnresolved]++
			continue
		}
		for _, def := range endToEnd {
			ma, mb := a[w][def.Name], b[w][def.Name]
			verdict, worse := judge(def, ma, mb)
			counts[verdict]++
			fmt.Printf("%-14s %-22s %14.4f %14.4f %+7.1f%% %7.1f%% %7.1f%% %6.0f%%  %s\n", w, def.Name,
				median(ma.values), median(mb.values), worse*100, ma.spread()*100, mb.spread()*100, def.Bound*100, verdict)
		}
	}
	fmt.Printf("%d ok, %d regressed, %d unresolved\n", counts[verdictOK], counts[verdictRegressed], counts[verdictUnresolved])
	if counts[verdictRegressed] > 0 {
		return 1
	}
	return 0
}
