package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The fixture tests prove each pass catches its seeded violations and stays
// quiet on the clean file. Every fixture package under testdata/src/<pass>
// has bad*.go files with deliberate violations and a clean.go with legal
// code; the harness demands an exact match — every expectation must be hit,
// and any finding on an unexpected line fails the test (so clean.go staying
// clean is checked for free).

// expect is one finding a fixture is seeded with. The offending line is
// located at run time by searching the fixture file for a unique snippet, so
// editing a fixture doesn't silently desynchronize line numbers.
type expect struct {
	file    string // base name within the fixture dir
	snippet string // unique source text on the offending line
	substr  string // required substring of the finding message
}

func fixtureDir(pass string) string {
	return filepath.Join("testdata", "src", pass)
}

func loadFixture(t *testing.T, pass string) *Unit {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	u, err := l.LoadDir(fixtureDir(pass), "fixtures/"+pass)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pass, err)
	}
	return u
}

// findLine returns the 1-based line of the first occurrence of snippet.
func findLine(t *testing.T, path, snippet string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, snippet) {
			return i + 1
		}
	}
	t.Fatalf("%s: snippet %q not found", path, snippet)
	return 0
}

func runFixture(t *testing.T, passName string, expects []expect) {
	t.Helper()
	u := loadFixture(t, passName)
	p := PassByName(passName)
	if p == nil {
		t.Fatalf("pass %q not registered", passName)
	}
	var findings []Finding
	if p.Run != nil {
		findings = p.Run(u)
	} else {
		findings = p.RunModule(NewProgram([]*Unit{u}))
	}

	type loc struct {
		file string
		line int
	}
	want := make(map[loc][]string)
	for _, e := range expects {
		path := filepath.Join(fixtureDir(passName), e.file)
		l := loc{e.file, findLine(t, path, e.snippet)}
		want[l] = append(want[l], e.substr)
	}
	got := make(map[loc][]string)
	for _, f := range findings {
		l := loc{filepath.Base(f.File), f.Line}
		got[l] = append(got[l], f.Message)
	}
	for l, subs := range want {
		msgs := got[l]
		if len(msgs) == 0 {
			t.Errorf("%s:%d: expected a finding matching %q, got none", l.file, l.line, subs)
			continue
		}
		for _, sub := range subs {
			matched := false
			for _, m := range msgs {
				if strings.Contains(m, sub) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("%s:%d: no finding matches %q; got %q", l.file, l.line, sub, msgs)
			}
		}
	}
	for l, msgs := range got {
		if _, ok := want[l]; !ok {
			t.Errorf("unexpected finding at %s:%d: %q", l.file, l.line, msgs)
		}
	}
}

func TestLockcheckFixtures(t *testing.T) {
	runFixture(t, "lockcheck", []expect{
		{"bad1.go", "c.n++", "without holding"},
		{"bad1.go", "c.n = 2", "without holding"},
		{"bad2.go", `return t.m["default"]`, "without holding"},
		{"bad2.go", "guarded by missing", "names no sync.Mutex/RWMutex"},
	})
}

func TestAtomiccheckFixtures(t *testing.T) {
	runFixture(t, "atomiccheck", []expect{
		{"bad1.go", "s.hits = atomic.Uint64{}", "plain value access"},
		{"bad1.go", "cp := *s", "copies a"},
		{"bad2.go", "func ByValue(g gauge)", "passed by value"},
		{"bad2.go", "for _, g := range list", "range value"},
	})
}

func TestErrcheckFixtures(t *testing.T) {
	runFixture(t, "errcheck", []expect{
		{"bad1.go", "not an escape hatch", "discards its error result"},
		{"bad1.go", "defer fail()", "discards its error result"},
		{"bad1.go", "_ = fail()", "no justification comment"},
		{"bad2.go", "v, _ := failTwo()", "no justification comment"},
		{"bad2.go", "go fail()", "discards its error result"},
	})
}

func TestGoroutinecheckFixtures(t *testing.T) {
	runFixture(t, "goroutinecheck", []expect{
		{"bad1.go", "go work()", "not joinable"},
		{"bad1.go", "go func() {", "not joinable"},
		{"bad2.go", "stop this ticker loop", "not joinable"},
		{"bad2.go", "never escapes the literal", "not joinable"},
	})
}

func TestClockcheckFixtures(t *testing.T) {
	runFixture(t, "clockcheck", []expect{
		{"bad1.go", "clock: time.Now", "time.Now"},
		{"bad1.go", "time.Since(start)", "time.Since"},
		{"bad1.go", "time.Until(deadline)", "time.Until"},
		{"bad2.go", "rand.Intn(n)", "process-global RNG"},
		{"bad2.go", "rand.Float64()", "process-global RNG"},
		{"bad2.go", "rand.Shuffle", "process-global RNG"},
	})
}

func TestLockorderFixtures(t *testing.T) {
	runFixture(t, "lockorder", []expect{
		{"bad1.go", "half of the cycle", "cycle"},
		{"bad1.go", "via the call graph", "lockorder.A.mu acquired while holding lockorder.B.mu"},
		{"bad2.go", "contradicts the declared order", "contradicting declared"},
		{"bad2.go", "contradicts the declared order", "cycle"},
		{"bad2.go", "lockorder.Missing.mu", "unknown lock class"},
	})
}

func TestNumcheckFixtures(t *testing.T) {
	runFixture(t, "numcheck", []expect{
		{"bad1.go", "unguarded division", "without a visible zero guard"},
		{"bad1.go", "unguarded log", "math.Log2"},
		{"bad1.go", "rounding-sensitive equality", "rounding-sensitive"},
		{"bad1.go", "constant out of domain", "out-of-domain constant"},
		{"bad2.go", "inline arithmetic into a state write", "bind and clamp"},
		{"bad2.go", "guard mentions scale, not n", "without a visible zero guard"},
	})
}

func TestCtxcheckFixtures(t *testing.T) {
	runFixture(t, "ctxcheck", []expect{
		{"bad1.go", "blocking sleep, no ctx parameter", "time.Sleep"},
		{"bad1.go", "net.Dial, no ctx parameter", "net.Dial"},
		{"bad1.go", "root context outside cmd/", "context.Background()"},
		{"bad2.go", "blocking accept, no ctx and no hatch", "Accept"},
		{"bad2.go", "literal has no ctx parameter", "time.Sleep"},
	})
}

func TestAlloccheckFixtures(t *testing.T) {
	runFixture(t, "alloccheck", []expect{
		{"bad1.go", "make with non-constant capacity", "non-constant size"},
		{"bad1.go", `return "v:" + id`, "string concatenation"},
		{"bad1.go", "fmt formatting in a hot function", "fmt.Sprintf"},
		{"bad1.go", "append to a never-pre-sized slice", "never pre-sized"},
		{"bad1.go", "boxing an int into an interface", "boxes a int"},
		{"bad2.go", "ranging over a map in a hot function", "ranging over a map"},
		{"bad2.go", "&T{} escapes to the heap", "allocates on the heap"},
		{"bad2.go", "slice literal in a hot callee", "hot via alloccheck.engine.Rank"},
		{"bad2.go", "make(map) per call", "make(map)"},
		{"bad2.go", "closure capturing n", "captures \"n\""},
	})
}

func TestPassScoping(t *testing.T) {
	p := &Pass{Scope: []string{"internal/storm", "cmd"}}
	for rel, wantApplies := range map[string]bool{
		"internal/storm":     true,
		"internal/storm/sub": true,
		"internal/stormy":    false,
		"cmd/recserve":       true,
		"internal/kvstore":   false,
		"":                   false,
	} {
		if got := p.AppliesTo(rel); got != wantApplies {
			t.Errorf("AppliesTo(%q) = %v, want %v", rel, got, wantApplies)
		}
	}
	everywhere := &Pass{}
	if !everywhere.AppliesTo("anything/at/all") {
		t.Error("a pass with no scope should apply everywhere")
	}
}

// TestRepoIsClean is the standing guarantee behind `make lint`: the module's
// own tree must produce zero findings. It type-checks the whole repo with the
// source importer, so it is the slowest test in the package.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-module lint in -short mode")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	units, err := l.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range Run(units, Passes()) {
		t.Errorf("repo is not lint-clean: %s", f)
	}
}
