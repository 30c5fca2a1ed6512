package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"testing"
)

// TestCollectStats counts findings per pass and the hatch comments that
// lead with a pass's marker; goroutinecheck's marker is vidlint:detached,
// and prose that merely quotes a marker does not count.
func TestCollectStats(t *testing.T) {
	const src = `package p

// ctxcheck: lifecycle goroutine; shutdown is listener Close
// vidlint:detached fire-and-forget by design
/* ctxcheck: a block-comment hatch */
// Prose quoting "// ctxcheck: <why>" is documentation, not a hatch.
// goroutinecheck: is not goroutinecheck's marker
func f() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	units := []*Unit{{Fset: fset, Files: []*ast.File{f}}}
	passes := []*Pass{{Name: "ctxcheck"}, {Name: "errcheck"}, {Name: "goroutinecheck"}}
	findings := []Finding{
		{Pass: "ctxcheck"}, {Pass: "ctxcheck"}, {Pass: "errcheck"},
		{Pass: "unlisted"}, // a pass outside the run gets no row
	}
	got := CollectStats(units, passes, findings)
	want := []PassStats{
		{Pass: "ctxcheck", Findings: 2, Hatches: 2},
		{Pass: "errcheck", Findings: 1, Hatches: 0},
		{Pass: "goroutinecheck", Findings: 0, Hatches: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("CollectStats = %+v, want %+v", got, want)
	}
}
