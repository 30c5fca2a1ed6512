package lint

import "go/types"

// hotSet computes the module's hot-function set: functions whose declaration
// carries a "// hotpath" marker are roots, and hotness floods transitively
// through the static call graph (direct calls, method values, references —
// see callgraph.go). Interface method calls resolve to the interface method,
// which has no body, so propagation stops there; implementations reachable
// only through an interface need their own annotation.
//
// The result maps each hot function to the immediate caller that made it hot
// ("" for an annotated root), so alloccheck's findings can explain
// themselves.
func hotSet(p *Program) map[*types.Func]string {
	g := p.CallGraph()
	hot := make(map[*types.Func]string)
	var queue []*types.Func
	for _, fn := range g.Functions() {
		u, fd := g.DeclOf(fn)
		if fd == nil {
			continue
		}
		if txt, ok := u.CommentAt(fd.Pos()); ok && hasMarker(txt, "hotpath") {
			hot[fn] = ""
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, cs := range g.CalleesOf(fn) {
			if _, seen := hot[cs.Callee]; !seen {
				hot[cs.Callee] = shortFuncName(fn)
				queue = append(queue, cs.Callee)
			}
		}
	}
	return hot
}
