package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// runSeconds is the measured time of one run that BENCHMARK.json asks the
// acceptance pipeline to pass as --seconds.
const runSeconds = 30

// manifestMain implements "benchmark manifest": it prints BENCHMARK.json from
// the harness's own tables, which is how the committed file is produced and
// what the unit tests hold it to.
func manifestMain() int {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []metricDef     `json:"end_to_end"`
		PerLayer   []metricDef     `json:"per_layer"` // no bound: the zero value is omitted
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadEntry{w.Name, w.Why})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark manifest:", err)
		return 1
	}
	return 0
}
