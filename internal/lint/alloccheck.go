package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// alloccheck enforces the serving-path allocation budget statically. The
// paper's real-time requirement holds only while the warm Recommend path
// stays in the microsecond range; the repo's defense used to be a handful of
// AllocsPerRun pins on leaf functions, which a stray fmt.Sprintf or unsized
// append three calls up silently erodes until a benchmark regresses.
//
// Functions whose declaration carries a "// hotpath" comment (on the line
// above `func`, conventionally the last doc-comment line, optionally
// "// hotpath: <why>") are hot roots. Hotness propagates transitively
// through the static call graph — including method values and functions
// stored in fields or passed as arguments (callgraph.go reference edges).
// Interface method calls resolve to the interface method, which has no body,
// so propagation stops there; implementations reachable only through an
// interface need their own annotation (that is why the kvstore codec helpers
// are annotated even though Recommend reaches them via the Store interface).
//
// Inside a hot function these constructs are findings:
//
//   - make of a map or channel, or of a slice with a non-constant length or
//     capacity (a constant-capacity make is a bounded, budgeted allocation);
//     new(T)
//   - append to a slice that is never visibly pre-sized (no make, slice
//     expression like buf[:0], or function-call origin in the body; fields,
//     elements, and parameters are assumed amortized or caller-sized)
//   - fmt.* formatting calls and non-constant string concatenation
//   - string <-> []byte/[]rune conversions of non-constant operands
//   - map and slice composite literals, and &T{} (a plain T{} value is not
//     flagged)
//   - func literals that capture variables from the enclosing function
//     (captures force heap allocation of the closure and the captured slot);
//     the literal's body is not walked — allocations inside it are charged
//     to the functions it calls, which the call graph marks hot
//   - ranging over a map (nondeterministic order and per-iteration overhead
//     on a scoring loop)
//
// Constructs on failure paths are exempt: inside an `if err != nil` body,
// inside a return that carries a non-nil error, or inside a panic argument,
// allocation happens when the request is already lost. Everything else needs
// either remediation or a justification hatch on the line (or the line
// above):
//
//	// alloccheck: <why this allocation is part of the budget>
//
// The hatch is deliberate friction: every accepted allocation is named,
// counted by `make lint-stats`, and auditable against the AllocsPerRun pins.
func init() {
	Register(&Pass{
		Name:      "alloccheck",
		Doc:       "no unbudgeted allocations in // hotpath functions and their transitive callees",
		RunModule: runAlloccheck,
	})
}

// hasMarker reports whether a comment contains marker as a standalone word
// (or "marker:" prefix), so prose like "the hot path" never triggers it.
func hasMarker(txt, marker string) bool {
	for _, f := range strings.Fields(txt) {
		if f == marker || strings.HasPrefix(f, marker+":") {
			return true
		}
	}
	return false
}

// shortFuncName renders pkg.Func or pkg.Recv.Func for diagnostics — short
// enough for a finding, qualified enough to be unambiguous in this module.
func shortFuncName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := namedFrom(sig.Recv().Type()); n != nil {
			name = n.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

func runAlloccheck(p *Program) []Finding {
	g := p.CallGraph()
	hot := hotSet(p) // see hotpath.go

	var findings []Finding
	for _, fn := range g.Functions() {
		via, isHot := hot[fn]
		if !isHot {
			continue
		}
		u, fd := g.DeclOf(fn)
		if fd == nil {
			continue
		}
		c := &allocChecker{u: u, fd: fd, name: shortFuncName(fn), via: via}
		c.check()
		findings = append(findings, c.findings...)
	}
	return findings
}

type allocChecker struct {
	u        *Unit
	fd       *ast.FuncDecl
	name     string // short name of the hot function being checked
	via      string // immediate hot caller, "" for an annotated root
	findings []Finding

	params map[types.Object]bool // parameters + named results (caller-sized)
}

func (c *allocChecker) report(stack []ast.Node, pos token.Pos, format string, args ...any) {
	if txt, ok := c.u.CommentAt(pos); ok && strings.Contains(txt, "alloccheck:") {
		return
	}
	if c.onFailurePath(stack) {
		return
	}
	where := "hot function " + c.name
	if c.via != "" {
		where += " (hot via " + c.via + ")"
	}
	c.findings = append(c.findings, c.u.finding("alloccheck", pos,
		"%s in %s", fmt.Sprintf(format, args...), where))
}

// onFailurePath reports whether the node whose ancestors are stack sits on a
// failure path: an `if <err-comparison>` body, a return carrying a non-nil
// error, or a panic argument. Allocation there happens when the request is
// already lost, so it cannot erode the warm budget.
func (c *allocChecker) onFailurePath(stack []ast.Node) bool {
	for _, n := range stack {
		switch x := n.(type) {
		case *ast.IfStmt:
			if c.condTestsError(x.Cond) {
				return true
			}
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				if c.isErrorValue(res) {
					return true
				}
			}
		case *ast.CallExpr:
			if id, ok := unparen(x.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := c.u.Info.Uses[id].(*types.Builtin); isBuiltin {
					return true
				}
			}
		}
	}
	return false
}

// condTestsError reports whether cond compares an error-typed operand
// (err != nil and friends).
func (c *allocChecker) condTestsError(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || (b.Op != token.EQL && b.Op != token.NEQ) {
			return !found
		}
		for _, op := range []ast.Expr{b.X, b.Y} {
			if t := c.u.Info.Types[op].Type; t != nil && types.Identical(t, errorType) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isErrorValue reports whether e is a non-nil expression assignable to
// error.
func (c *allocChecker) isErrorValue(e ast.Expr) bool {
	if id, ok := unparen(e).(*ast.Ident); ok && id.Name == "nil" {
		return false
	}
	t := c.u.Info.Types[e].Type
	return t != nil && t != types.Typ[types.UntypedNil] && types.AssignableTo(t, errorType)
}

func (c *allocChecker) check() {
	c.params = make(map[types.Object]bool)
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := c.u.Info.Defs[name]; obj != nil {
					c.params[obj] = true
				}
			}
		}
	}
	collect(c.fd.Type.Params)
	collect(c.fd.Type.Results)

	walkStack(c.fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if cap := c.firstCapture(x); cap != "" {
				c.report(stack, x.Pos(), "func literal captures %q from the enclosing function — the closure and its captures move to the heap", cap)
			}
			return false // allocations inside run when the closure runs; its callees are hot via the call graph
		case *ast.CallExpr:
			c.checkCall(x, stack)
		case *ast.BinaryExpr:
			c.checkConcat(x, stack)
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && c.isNonConstString(x.Lhs[0]) {
				c.report(stack, x.Pos(), "string += concatenation allocates a new string per call")
			}
		case *ast.CompositeLit:
			c.checkCompositeLit(x, stack)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := unparen(x.X).(*ast.CompositeLit); ok {
					c.report(stack, x.Pos(), "&%s{...} allocates on the heap per call", typeLabel(c.u, x.X))
				}
			}
		case *ast.RangeStmt:
			if t := c.u.Info.Types[x.X].Type; t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					c.report(stack, x.Pos(), "ranging over a map (nondeterministic order, per-iteration overhead)")
				}
			}
		}
		return true
	})
}

func (c *allocChecker) checkCall(call *ast.CallExpr, stack []ast.Node) {
	// Builtins: make / new / append.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := c.u.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				c.checkMake(call, stack)
			case "new":
				c.report(stack, call.Pos(), "new(%s) allocates on the heap per call", typeLabel(c.u, call.Args[0]))
			case "append":
				c.checkAppend(call, stack)
			}
			return
		}
	}
	// fmt.* formatting.
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if pkg, ok := unparen(sel.X).(*ast.Ident); ok {
			if pn, ok := c.u.Info.Uses[pkg].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				c.report(stack, call.Pos(), "fmt.%s formats through reflection and allocates", sel.Sel.Name)
				return
			}
		}
	}
	tv, ok := c.u.Info.Types[call.Fun]
	if !ok {
		return
	}
	// string <-> []byte/[]rune conversions copy their operand.
	if tv.IsType() && len(call.Args) == 1 {
		dst := c.u.Info.Types[call].Type
		src := c.u.Info.Types[call.Args[0]]
		if src.Value == nil && isStringBytesPair(dst, src.Type) {
			c.report(stack, call.Pos(), "%s conversion copies its operand", typeLabel(c.u, call.Fun))
		}
		return
	}
	// Interface boxing at call arguments: a non-constant, non-pointer
	// concrete value passed as an interface parameter escapes to the heap.
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && pi >= sig.Params().Len()-1 {
			pi = sig.Params().Len() - 1
		}
		if pi < 0 || pi >= sig.Params().Len() {
			break
		}
		pt := sig.Params().At(pi).Type()
		if sig.Variadic() && pi == sig.Params().Len()-1 && !call.Ellipsis.IsValid() {
			if sl, ok := pt.Underlying().(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if _, isTypeParam := pt.(*types.TypeParam); isTypeParam {
			continue // generic parameter; instantiation decides, not this site
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := c.u.Info.Types[arg]
		if at.Type == nil || at.Value != nil || at.Type == types.Typ[types.UntypedNil] {
			continue
		}
		switch at.Type.Underlying().(type) {
		case *types.Interface, *types.Pointer, *types.Signature, *types.Map, *types.Chan:
			continue // already a single word; no boxing allocation
		}
		c.report(stack, arg.Pos(), "passing %s boxes a %s into an interface", exprString(arg), at.Type.String())
	}
}

func (c *allocChecker) checkMake(call *ast.CallExpr, stack []ast.Node) {
	t := c.u.Info.Types[call].Type
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		c.report(stack, call.Pos(), "make(map) allocates per call — hoist to a reused scratch structure")
	case *types.Chan:
		c.report(stack, call.Pos(), "make(chan) allocates per call")
	case *types.Slice:
		for _, size := range call.Args[1:] {
			if c.u.Info.Types[size].Value == nil {
				c.report(stack, call.Pos(), "make with non-constant size %s allocates an unbounded amount per call", exprString(size))
				return
			}
		}
	}
}

// checkAppend flags appends whose base slice is never visibly pre-sized:
// repeated growth reallocates log(n) times per call. Fields, elements, and
// parameters are exempt (amortized container growth or caller-sized
// buffers); locals are exempt when any assignment in the body gives them
// capacity (a make, a slice expression like buf[:0], or a call result).
func (c *allocChecker) checkAppend(call *ast.CallExpr, stack []ast.Node) {
	if len(call.Args) == 0 {
		return
	}
	id, ok := unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return // fields, elements, slice exprs, nested calls: exempt
	}
	obj := c.u.Info.Uses[id]
	if obj == nil || c.params[obj] {
		return
	}
	if c.hasPresizedOrigin(obj) {
		return
	}
	c.report(stack, call.Pos(), "append to %s, which is never pre-sized — grows by repeated reallocation", id.Name)
}

// hasPresizedOrigin reports whether any assignment to obj in the function
// body gives it visible capacity. Self-appends (x = append(x, ...)) do not
// count as origins.
func (c *allocChecker) hasPresizedOrigin(obj types.Object) bool {
	found := false
	ast.Inspect(c.fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				lid, ok := unparen(lhs).(*ast.Ident)
				if !ok || i >= len(st.Rhs) {
					continue
				}
				if c.u.Info.Defs[lid] != obj && c.u.Info.Uses[lid] != obj {
					continue
				}
				if c.presizedExpr(st.Rhs[i], obj) {
					found = true
				}
			}
		case *ast.ValueSpec:
			for i, name := range st.Names {
				if c.u.Info.Defs[name] != obj || i >= len(st.Values) {
					continue
				}
				if c.presizedExpr(st.Values[i], obj) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

func (c *allocChecker) presizedExpr(e ast.Expr, obj types.Object) bool {
	switch x := unparen(e).(type) {
	case *ast.SliceExpr:
		return true // buf[:0] reuse idiom
	case *ast.CompositeLit:
		return true // flagged in its own right; the append is then fine
	case *ast.CallExpr:
		// A self-append is growth, not an origin; any other call (make
		// included — it gets its own finding if unsized) hands back a
		// sized slice.
		if id, ok := unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, isBuiltin := c.u.Info.Uses[id].(*types.Builtin); isBuiltin {
				if len(x.Args) > 0 {
					if base, ok := unparen(x.Args[0]).(*ast.Ident); ok && (c.u.Info.Uses[base] == obj || c.u.Info.Defs[base] == obj) {
						return false
					}
				}
				return true
			}
		}
		return true
	}
	return false
}

func (c *allocChecker) checkConcat(b *ast.BinaryExpr, stack []ast.Node) {
	if b.Op != token.ADD || !c.isNonConstString(b) {
		return
	}
	// Report once per concatenation chain: (a+b)+c is two BinaryExprs on
	// one expression; the parent already covers the child.
	if len(stack) > 0 {
		if p, ok := stack[len(stack)-1].(*ast.BinaryExpr); ok && p.Op == token.ADD && c.isNonConstString(p) {
			return
		}
	}
	c.report(stack, b.Pos(), "string concatenation allocates a new string per call")
}

func (c *allocChecker) isNonConstString(e ast.Expr) bool {
	tv, ok := c.u.Info.Types[e]
	if !ok || tv.Type == nil || tv.Value != nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

func (c *allocChecker) checkCompositeLit(lit *ast.CompositeLit, stack []ast.Node) {
	// &T{} is handled at the UnaryExpr, where the escape happens.
	if len(stack) > 0 {
		if u, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && u.Op == token.AND {
			return
		}
	}
	t := c.u.Info.Types[lit].Type
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		c.report(stack, lit.Pos(), "map literal allocates per call")
	case *types.Slice:
		c.report(stack, lit.Pos(), "slice literal allocates per call")
	}
}

// firstCapture returns the name of the first variable lit captures from the
// enclosing function, or "".
func (c *allocChecker) firstCapture(lit *ast.FuncLit) string {
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := c.u.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured = function-local (not package-level) and declared
		// outside the literal.
		if v.Parent() == nil || v.Parent() == c.u.Pkg.Scope() || v.Parent() == types.Universe {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = id.Name
		}
		return true
	})
	return captured
}

// isStringBytesPair reports whether dst/src are a string <-> []byte or
// string <-> []rune conversion pair.
func isStringBytesPair(dst, src types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteRuneSlice := func(t types.Type) bool {
		sl, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := sl.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(dst) && isByteRuneSlice(src)) || (isByteRuneSlice(dst) && isStr(src))
}

// typeLabel renders the type expression at e for a message.
func typeLabel(u *Unit, e ast.Expr) string {
	if t := u.Info.Types[e].Type; t != nil {
		s := t.String()
		// Strip the module path for readability; findings stay stable
		// because the module path never varies.
		if i := strings.LastIndex(s, "/"); i >= 0 {
			s = s[i+1:]
		}
		return s
	}
	return exprString(e)
}
