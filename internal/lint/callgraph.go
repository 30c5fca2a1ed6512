package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"
)

// Program is the whole-module view handed to cross-package passes: every
// type-checked unit plus a lazily-built static call graph. Per-function
// passes see one Unit at a time; dataflow passes like lockorder need to
// follow calls across package boundaries, which is exactly what this type
// packages up.
type Program struct {
	Units []*Unit

	cgOnce sync.Once
	cg     *CallGraph // built on first CallGraph() call
}

// NewProgram wraps units for module-level analysis.
func NewProgram(units []*Unit) *Program {
	return &Program{Units: units}
}

// CallGraph returns the program's static call graph, building it on first
// use. Module passes run concurrently (lint.Run), so the build is behind a
// sync.Once.
func (p *Program) CallGraph() *CallGraph {
	p.cgOnce.Do(func() { p.cg = buildCallGraph(p.Units) })
	return p.cg
}

// CallGraph is a static, declaration-level call graph: an edge f -> g means
// the body of f contains a call expression that resolves to g, or a
// reference to g as a value (a method value like `h := s.score`, a function
// passed as an argument, or a function stored in a field) — a referenced
// function may be invoked later through the value, so dataflow passes must
// assume the edge is live. Resolution is purely syntactic+type-based —
// direct calls, method calls on concrete receivers, and interface method
// calls (which resolve to the interface method object, not its
// implementations). Calls through values whose origin is not visible in the
// body (e.g. a function received as a parameter) are still missed. That
// under-approximation is the standard trade-off for a stdlib-only linter: it
// can miss an edge, so passes built on it report "potential" rather than
// "proven" properties.
type CallGraph struct {
	decls map[*types.Func]*funcDecl
	calls map[*types.Func][]CallSite
}

type funcDecl struct {
	unit *Unit
	decl *ast.FuncDecl
}

// CallSite is one resolved call inside a function body.
type CallSite struct {
	Callee *types.Func
	Pos    token.Pos
}

// DeclOf returns the declaration of fn, or (nil, nil) for functions without
// a body in the module (interface methods, stdlib, function values).
func (g *CallGraph) DeclOf(fn *types.Func) (*Unit, *ast.FuncDecl) {
	d, ok := g.decls[fn]
	if !ok {
		return nil, nil
	}
	return d.unit, d.decl
}

// CalleesOf returns the resolved call sites in fn's body, in source order.
func (g *CallGraph) CalleesOf(fn *types.Func) []CallSite {
	return g.calls[fn]
}

// Functions returns every declared function in the graph, sorted by full
// name for determinism.
func (g *CallGraph) Functions() []*types.Func {
	out := make([]*types.Func, 0, len(g.decls))
	for fn := range g.decls {
		out = append(out, fn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	return out
}

func buildCallGraph(units []*Unit) *CallGraph {
	g := &CallGraph{
		decls: make(map[*types.Func]*funcDecl),
		calls: make(map[*types.Func][]CallSite),
	}
	for _, u := range units {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := u.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.decls[fn] = &funcDecl{unit: u, decl: fd}
				// First sweep: direct calls. Idents consumed as the callee
				// of a call are remembered so the reference sweep below
				// doesn't double-count them.
				direct := make(map[*ast.Ident]bool)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					switch fun := unparen(call.Fun).(type) {
					case *ast.Ident:
						direct[fun] = true
					case *ast.SelectorExpr:
						direct[fun.Sel] = true
					}
					if callee := resolveCallee(u, call); callee != nil {
						g.calls[fn] = append(g.calls[fn], CallSite{Callee: callee, Pos: call.Pos()})
					}
					return true
				})
				// Second sweep: method values and stored function
				// references (`h := s.score`, `go run(fn)`, func-typed
				// struct fields). Any use of a declared function other than
				// calling it directly means the function may run wherever
				// the value flows, so it gets an edge too.
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok || direct[id] {
						return true
					}
					if ref, ok := u.Info.Uses[id].(*types.Func); ok {
						g.calls[fn] = append(g.calls[fn], CallSite{Callee: ref, Pos: id.Pos()})
					}
					return true
				})
			}
		}
	}
	return g
}

// resolveCallee maps a call expression to the *types.Func it statically
// invokes, or nil for conversions, builtins, and calls through values.
func resolveCallee(u *Unit, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := u.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := u.Info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified call: pkg.Func.
		if fn, ok := u.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
