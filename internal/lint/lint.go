// Package lint is vidrec's from-scratch static-analysis framework, built
// entirely on the standard library (go/parser, go/ast, go/types,
// go/importer). It keeps only the checks that no test, `go vet` or race run
// catches (DESIGN §7's mutation table is the evidence for each):
//
//   - errcheck: error results in the storage/topology/training/cmd layers
//     may not be silently discarded.
//   - goroutinecheck: goroutines in the topology runtime and commands must
//     be joinable (WaitGroup, channel, or context).
//
// The dataflow suite follows facts across function and package boundaries
// through a static call graph (callgraph.go):
//
//   - lockorder: the global lock-acquisition order must be acyclic; cycles
//     are potential AB-BA deadlocks.
//   - ctxcheck: serving/network paths thread context.Context; root contexts
//     are minted only in cmd/.
//
// New passes register themselves in an init function via Register; see
// errcheck.go (per-unit) or lockorder.go (module-level) for the shape.
// cmd/vidlint is the command-line driver.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Finding is one diagnostic produced by a pass.
type Finding struct {
	Pass    string `json:"pass"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.File, f.Line, f.Col, f.Message, f.Pass)
}

// Pass is one analysis. Exactly one of Run and RunModule is set: Run is
// invoked once per Unit whose RelPath matches Scope; RunModule is invoked
// once with the whole program, for passes whose property only exists across
// package boundaries (lock-acquisition order through the call graph).
type Pass struct {
	Name string
	Doc  string
	// Scope lists module-relative path prefixes the pass applies to; nil
	// means every package. RunModule passes receive every unit and apply
	// their own scoping.
	Scope     []string
	Run       func(u *Unit) []Finding
	RunModule func(p *Program) []Finding
}

// AppliesTo reports whether the pass runs on a package at the given
// module-relative path.
func (p *Pass) AppliesTo(rel string) bool {
	if len(p.Scope) == 0 {
		return true
	}
	for _, prefix := range p.Scope {
		if rel == prefix || strings.HasPrefix(rel, prefix+"/") {
			return true
		}
	}
	return false
}

var registry []*Pass

// Register adds a pass to the global registry. Passes self-register from
// init functions; adding a new pass is a new file with an init and a Run.
func Register(p *Pass) { registry = append(registry, p) }

// Passes returns the registered passes sorted by name.
func Passes() []*Pass {
	out := make([]*Pass, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// PassByName returns the named pass, or nil.
func PassByName(name string) *Pass {
	for _, p := range registry {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// Run applies each pass to each unit it scopes to (module-level passes run
// once over the whole program) and returns all findings sorted by position.
//
// Execution is parallel: module passes fan out across a bounded worker pool,
// and per-unit passes fan out across packages on the same pool. Both are
// safe because a loaded Unit is read-only, the shared token.FileSet
// synchronizes internally, and Program's lazy call graph is behind a
// sync.Once. Every parallel result lands in its own indexed slot and the
// final position sort canonicalizes the merged order, so output is
// deterministic regardless of scheduling.
func Run(units []*Unit, passes []*Pass) []Finding {
	workers := runtime.GOMAXPROCS(0)
	if workers < 1 {
		workers = 1
	}

	var modPasses []*Pass
	for _, p := range passes {
		if p.RunModule != nil {
			modPasses = append(modPasses, p)
		}
	}
	byModPass := make([][]Finding, len(modPasses))
	if len(modPasses) > 0 {
		prog := NewProgram(units)
		runPool(len(modPasses), workers, func(i int) {
			byModPass[i] = modPasses[i].RunModule(prog)
		})
	}

	byUnit := make([][]Finding, len(units))
	runPool(len(units), workers, func(i int) {
		u := units[i]
		for _, p := range passes {
			if p.Run != nil && p.AppliesTo(u.RelPath) {
				byUnit[i] = append(byUnit[i], p.Run(u)...)
			}
		}
	})

	var findings []Finding
	for _, fs := range byModPass {
		findings = append(findings, fs...)
	}
	for _, fs := range byUnit {
		findings = append(findings, fs...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Message < b.Message
	})
	return findings
}

// runPool invokes fn(0..n-1) across at most workers goroutines and waits for
// all of them. fn must write only to its own indexed slot.
func runPool(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if n == 0 {
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// finding builds a Finding at pos. The file is reported module-relative so
// findings are stable across checkouts.
func (u *Unit) finding(pass string, pos token.Pos, format string, args ...any) Finding {
	p := u.Posn(pos)
	file := p.Filename
	if base := filepath.Base(file); u.RelPath != "" {
		file = path.Join(u.RelPath, base)
	} else {
		file = base
	}
	return Finding{
		Pass:    pass,
		File:    file,
		Line:    p.Line,
		Col:     p.Column,
		Message: fmt.Sprintf(format, args...),
	}
}

// ---- shared AST / type helpers ----

// walkStack traverses the AST rooted at n, calling fn with each node and the
// stack of its ancestors (outermost first, not including n). Returning false
// from fn prunes the subtree.
func walkStack(n ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		ok := fn(n, stack)
		if ok {
			stack = append(stack, n)
		}
		return ok
	})
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// namedFrom unwraps pointers and aliases down to a *types.Named, or nil.
func namedFrom(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// isPkgType reports whether t (or *t) is the named type pkgPath.name.
func isPkgType(t types.Type, pkgPath string, names ...string) bool {
	n := namedFrom(t)
	if n == nil || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != pkgPath {
		return false
	}
	for _, name := range names {
		if n.Obj().Name() == name {
			return true
		}
	}
	return false
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (possibly via
// pointer).
func isMutexType(t types.Type) bool {
	return isPkgType(t, "sync", "Mutex", "RWMutex")
}

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type()

// errorResults returns the result positions of call that have type error,
// and the total number of results. A nil slice means the call yields no
// errors (or is not a function call at all, e.g. a conversion).
func errorResults(u *Unit, call *ast.CallExpr) (positions []int, n int) {
	tv, ok := u.Info.Types[call.Fun]
	if !ok || tv.IsType() { // conversion, not a call
		return nil, 0
	}
	res := u.Info.Types[call]
	if res.Type == nil {
		return nil, 0
	}
	switch t := res.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if types.Identical(t.At(i).Type(), errorType) {
				positions = append(positions, i)
			}
		}
		return positions, t.Len()
	default:
		if types.Identical(res.Type, errorType) {
			return []int{0}, 1
		}
		return nil, 1
	}
}

// exprString renders a small expression for diagnostics (identifiers and
// selector chains; anything else comes back abbreviated).
func exprString(e ast.Expr) string {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.CallExpr:
		return exprString(x.Fun) + "(...)"
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.UnaryExpr:
		return x.Op.String() + exprString(x.X)
	default:
		return "<expr>"
	}
}
