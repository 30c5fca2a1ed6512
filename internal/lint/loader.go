package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The loader turns a Go module on disk into type-checked Units using only the
// standard library: go/parser for syntax, go/types for semantics, and the
// "source" importer for out-of-module (standard library) dependencies.
// In-module imports are resolved by type-checking module packages in
// dependency order and caching the results, so the loader never needs export
// data or an external build system.

// Unit is one type-checked package plus the lookup tables passes need.
type Unit struct {
	// Path is the full import path (module path + relative directory).
	Path string
	// RelPath is the directory relative to the module root ("" for the
	// root package). Pass scoping matches against RelPath.
	RelPath string
	// Dir is the absolute directory the package was loaded from.
	Dir string

	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// comments maps filename -> line -> comment text for every line a
	// comment appears on (or spans). Justification-comment lookups use it.
	comments map[string]map[int]string
}

// Posn returns the position of pos in u's file set.
func (u *Unit) Posn(pos token.Pos) token.Position { return u.Fset.Position(pos) }

// CommentAt returns the comment text attached to the line of pos: a comment
// on the same line, or one on the line immediately above. ok is false when
// neither exists.
func (u *Unit) CommentAt(pos token.Pos) (text string, ok bool) {
	p := u.Posn(pos)
	lines := u.comments[p.Filename]
	if lines == nil {
		return "", false
	}
	if t, ok := lines[p.Line]; ok {
		return t, true
	}
	if t, ok := lines[p.Line-1]; ok {
		return t, true
	}
	return "", false
}

func (u *Unit) indexComments() {
	u.comments = make(map[string]map[int]string)
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				start := u.Posn(c.Pos())
				end := u.Posn(c.End())
				m := u.comments[start.Filename]
				if m == nil {
					m = make(map[int]string)
					u.comments[start.Filename] = m
				}
				for line := start.Line; line <= end.Line; line++ {
					if m[line] != "" {
						m[line] += " "
					}
					m[line] += c.Text
				}
			}
		}
	}
}

// Loader loads and type-checks the packages of one module.
type Loader struct {
	Root       string // module root directory (holds go.mod)
	ModulePath string // module path declared in go.mod
	// IncludeTests adds _test.go files of each package (external test
	// packages are still skipped).
	IncludeTests bool

	fset    *token.FileSet
	std     types.Importer
	checked map[string]*Unit // by import path
}

// NewLoader returns a loader for the module rooted at dir. It reads go.mod to
// learn the module path.
func NewLoader(dir string) (*Loader, error) {
	mod, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:       dir,
		ModulePath: mod,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		checked:    make(map[string]*Unit),
	}, nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			rest = strings.TrimSpace(rest)
			if p, err := strconv.Unquote(rest); err == nil {
				return p, nil
			}
			return rest, nil
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s", gomod)
}

// LoadModule parses and type-checks every package under the module root,
// returning units in dependency order. Directories named testdata, vendor,
// or starting with "." or "_" are skipped, as are files the default build
// context excludes and _test.go files unless IncludeTests is set.
func (l *Loader) LoadModule() ([]*Unit, error) {
	dirs, err := l.packageDirs()
	if err != nil {
		return nil, err
	}
	parsed := make(map[string]*parsedPkg, len(dirs)) // by import path
	for _, dir := range dirs {
		p, err := l.parseDir(dir)
		if err != nil {
			return nil, err
		}
		if p == nil {
			continue // no buildable files
		}
		parsed[p.path] = p
	}
	order, err := topoSort(parsed)
	if err != nil {
		return nil, err
	}
	units := make([]*Unit, 0, len(order))
	for _, path := range order {
		u, err := l.check(parsed[path])
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	return units, nil
}

// LoadDir parses and type-checks the single package in dir (which may be
// outside the module, e.g. a test fixture). Imports must resolve through the
// standard library or already-loaded module packages.
func (l *Loader) LoadDir(dir, importPath string) (*Unit, error) {
	p, err := l.parseDirAs(dir, importPath, importPath)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	return l.check(p)
}

type parsedPkg struct {
	path    string // import path
	rel     string // module-relative dir
	dir     string
	files   []*ast.File
	imports []string // in-module imports only
}

func (l *Loader) packageDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.Root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lint: walk %s: %w", l.Root, err)
	}
	sort.Strings(dirs)
	return dirs, nil
}

func (l *Loader) parseDir(dir string) (*parsedPkg, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return nil, err
	}
	if rel == "." {
		rel = ""
	}
	rel = filepath.ToSlash(rel)
	path := l.ModulePath
	if rel != "" {
		path = l.ModulePath + "/" + rel
	}
	return l.parseDirAs(dir, path, rel)
}

func (l *Loader) parseDirAs(dir, path, rel string) (*parsedPkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	p := &parsedPkg{path: path, rel: rel, dir: dir}
	seen := make(map[string]bool)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if !l.IncludeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Honor //go:build lines and _GOOS/_GOARCH suffixes as `go build`
		// does, so a tag-split pair (race_test.go / norace_test.go) loads
		// one file instead of two redeclarations.
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if !match {
			continue
		}
		file, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		// External test packages (package foo_test) would need their own
		// unit; keep the loader simple and skip them.
		if strings.HasSuffix(file.Name.Name, "_test") {
			continue
		}
		p.files = append(p.files, file)
		for _, imp := range file.Imports {
			ipath, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if inModule(ipath, l.ModulePath) && !seen[ipath] {
				seen[ipath] = true
				p.imports = append(p.imports, ipath)
			}
		}
	}
	if len(p.files) == 0 {
		return nil, nil
	}
	return p, nil
}

func inModule(importPath, module string) bool {
	return importPath == module || strings.HasPrefix(importPath, module+"/")
}

// topoSort orders packages so every in-module import precedes its importer.
func topoSort(pkgs map[string]*parsedPkg) ([]string, error) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int, len(pkgs))
	var order []string
	var visit func(string) error
	visit = func(path string) error {
		color[path] = gray
		for _, dep := range pkgs[path].imports {
			p, ok := pkgs[dep]
			if !ok {
				continue // import of a dir with no buildable files; types will complain
			}
			switch color[p.path] {
			case gray:
				return fmt.Errorf("lint: import cycle through %s", p.path)
			case white:
				if err := visit(p.path); err != nil {
					return err
				}
			}
		}
		color[path] = black
		order = append(order, path)
		return nil
	}
	paths := make([]string, 0, len(pkgs))
	for path := range pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if color[path] == white {
			if err := visit(path); err != nil {
				return nil, err
			}
		}
	}
	return order, nil
}

// Import implements types.Importer: in-module packages come from the cache of
// already-checked units, everything else falls through to the source
// importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if u, ok := l.checked[path]; ok {
		return u.Pkg, nil
	}
	if inModule(path, l.ModulePath) {
		return nil, fmt.Errorf("lint: module package %s not yet loaded (import cycle?)", path)
	}
	return l.std.Import(path)
}

func (l *Loader) check(p *parsedPkg) (*Unit, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg, err := conf.Check(p.path, l.fset, p.files, info)
	if len(typeErrs) > 0 {
		msgs := make([]string, 0, len(typeErrs))
		for i, e := range typeErrs {
			if i == 8 {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(typeErrs)-i))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("lint: type-checking %s failed:\n\t%s", p.path, strings.Join(msgs, "\n\t"))
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", p.path, err)
	}
	u := &Unit{
		Path:    p.path,
		RelPath: p.rel,
		Dir:     p.dir,
		Fset:    l.fset,
		Files:   p.files,
		Pkg:     pkg,
		Info:    info,
	}
	u.indexComments()
	l.checked[p.path] = u
	return u, nil
}
