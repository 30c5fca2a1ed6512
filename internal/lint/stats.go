package lint

import "strings"

// PassStats summarizes one pass's outcome for a run: how many findings it
// reported and how many inline escape hatches the scanned source carries
// for it. The hatch count is the honest cost of the pass's discipline —
// every hatch is a human-reviewed exception, and `make lint-stats` keeps
// that number visible instead of letting exceptions accrete silently.
type PassStats struct {
	Pass     string `json:"pass"`
	Findings int    `json:"findings"`
	Hatches  int    `json:"hatches"`
}

// hatchMarker returns the inline comment marker that suppresses a pass.
// Every pass uses "<name>:" except goroutinecheck, whose historical marker
// is "vidlint:detached".
func hatchMarker(name string) string {
	if name == "goroutinecheck" {
		return "vidlint:detached"
	}
	return name + ":"
}

// CollectStats builds per-pass counters from one run's findings; hatch
// comments are counted across every loaded unit's source comments.
func CollectStats(units []*Unit, passes []*Pass, findings []Finding) []PassStats {
	found := make(map[string]int)
	for _, f := range findings {
		found[f.Pass]++
	}
	hatch := make(map[string]int)
	for _, u := range units {
		for _, file := range u.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					// A hatch comment leads with its marker ("// ctxcheck:
					// reason ..."); requiring the prefix keeps prose that
					// merely quotes a marker (pass documentation examples)
					// out of the count.
					txt := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"))
					for _, p := range passes {
						if strings.HasPrefix(txt, hatchMarker(p.Name)) {
							hatch[p.Name]++
						}
					}
				}
			}
		}
	}
	out := make([]PassStats, 0, len(passes))
	for _, p := range passes {
		out = append(out, PassStats{Pass: p.Name, Findings: found[p.Name], Hatches: hatch[p.Name]})
	}
	return out
}
