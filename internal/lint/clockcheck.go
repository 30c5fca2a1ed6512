package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// clockcheck enforces the simulation harness's determinism contract
// (internal/sim): every package the harness replays through must be a pure
// function of its inputs, which means no ambient time or randomness. Two
// things are findings inside the scoped packages:
//
//   - a reference to time.Now, time.Since, or time.Until — called or taken
//     as a value. Deterministic components take an injected clock
//     (func() time.Time) and the sim wires in its virtual clock;
//   - a call to a package-level math/rand or math/rand/v2 function (the
//     process-global RNG). Constructors (rand.New, rand.NewPCG, ...) are
//     fine — a seeded *rand.Rand instance is exactly the discipline the
//     pass is asking for.
//
// The escape hatch is `// clockcheck: <why>` on the offending line or the
// line above, for default values that every sim-covered caller overrides
// (e.g. a clock field defaulting to time.Now behind a SetClock).

func init() {
	Register(&Pass{
		Name: "clockcheck",
		Doc:  "sim-covered packages take injected clocks and seeded RNGs; no time.Now or global math/rand",
		Scope: []string{
			"internal/storm", "internal/topology", "internal/recommend",
			"internal/simtable", "internal/kvstore", "internal/core",
			"internal/history", "internal/demographic", "internal/catalog",
			"internal/feedback", "internal/dataset", "internal/topn",
			"internal/metrics", "internal/vecmath", "internal/sim",
			"internal/objcache", "internal/bandit", "fixtures/clockcheck",
		},
		Run: runClockcheck,
	})
}

// wallClockFuncs are the time package functions that read the wall clock.
// Timer constructors (NewTimer, After) are ctxcheck's territory; these three
// leak nondeterminism into computed state.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runClockcheck(u *Unit) []Finding {
	var findings []Finding
	for _, f := range u.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := u.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods (e.g. on a seeded *rand.Rand) are fine
			}
			switch fn.Pkg().Path() {
			case "time":
				if !wallClockFuncs[fn.Name()] {
					return true
				}
				if hatchedClock(u, sel) {
					return true
				}
				findings = append(findings, u.finding("clockcheck", sel.Pos(),
					"reads the wall clock via time.%s: take an injected clock func() time.Time so the sim harness can replay deterministically (or annotate '// clockcheck: <why>')",
					fn.Name()))
			case "math/rand", "math/rand/v2":
				if strings.HasPrefix(fn.Name(), "New") {
					return true // constructors build the seeded instances we want
				}
				if hatchedClock(u, sel) {
					return true
				}
				findings = append(findings, u.finding("clockcheck", sel.Pos(),
					"uses the process-global RNG %s.%s: use a seeded *rand.Rand so the sim harness can replay deterministically (or annotate '// clockcheck: <why>')",
					fn.Pkg().Name(), fn.Name()))
			}
			return true
		})
	}
	return findings
}

func hatchedClock(u *Unit, sel *ast.SelectorExpr) bool {
	txt, ok := u.CommentAt(sel.Pos())
	return ok && strings.Contains(txt, "clockcheck:")
}
