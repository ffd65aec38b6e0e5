// Package surface asks the paper's question of this tree: does
// anything measurable depend on it? A function, type, variable,
// constant or method of a production package under internal/ stays
// only if something other than its own package's unit tests reaches
// it — a file of cmd/, examples/, benchmark/ or the root package (the
// experiments in bench_test.go), or a test of a different package
// (which is what keeps fakes and seams such as internal/faultinject).
// Reach is transitive: an exported function whose only callers are
// themselves unreached is unreached, so deleting one capability cannot
// leave its helpers behind.
//
// The pass type-checks the module from source, because a textual search
// is wrong in both directions: yield.Curve is only ever called through
// an import alias, and a name that appears in a comment is not a caller.
package surface

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

const (
	module   = "repro"
	internal = module + "/internal/"
)

// allow is the whole allowlist: identifiers the rule does not reach
// that stay anyway, one reason each. Five entries at most — past that
// the rule is being argued with, not applied.
var allow = map[string]string{
	"layout.Write":          "the only writer of the text format drccheck, lithosim, yieldest and patscan read; io_test round-trips Read against it",
	"yield.SizeDist.CDF":    "the closed form TestSampleMatchesCDF compares the production sampler against",
	"opc.MRC.MRCViolations": "the mask-rule oracle TestILTMaskIsMRCClean holds ILT's output to",
}

// loader type-checks packages of this module from source, each
// production package exactly once so that an object has one identity
// however many importers see it; everything else comes from the
// standard library's source importer.
type loader struct {
	fset *token.FileSet
	root string
	std  types.Importer
	prod map[string]*production
	info *types.Info
	errs []string
}

type production struct {
	types *types.Package
	files []*ast.File
}

func (l *loader) dir(path string) string {
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, module), "/")))
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path != module && !strings.HasPrefix(path, module+"/") {
		return l.std.Import(path)
	}
	if p, ok := l.prod[path]; ok {
		return p.types, nil
	}
	bp, err := build.Default.ImportDir(l.dir(path), 0)
	if err != nil {
		return nil, err
	}
	p := &production{files: l.parse(bp.Dir, bp.GoFiles)}
	p.types = l.check(path, p.files)
	l.prod[path] = p
	return p.types, nil
}

// conventions are the interfaces package errors asserts to inside its
// function bodies, which the source importer does not keep.
const conventions = `package conventions
type (
	Is      interface{ Is(error) bool }
	As      interface{ As(any) bool }
	Unwrap  interface{ Unwrap() error }
	Unwraps interface{ Unwrap() []error }
)`

// interfaces lists every interface a method could be called through:
// error, the named ones of every package loaded, the standard
// library's included, and the literal ones in this module's source.
func (l *loader) interfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range l.prod {
		visit(p.types)
	}
	if f, err := parser.ParseFile(l.fset, "conventions.go", conventions, 0); err == nil {
		visit(l.check("conventions", []*ast.File{f}))
	}
	for e, tv := range l.info.Types {
		if _, lit := e.(*ast.InterfaceType); lit {
			if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
	}
	return out
}

func (l *loader) parse(dir string, names []string) []*ast.File {
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
		if err != nil {
			l.errs = append(l.errs, err.Error())
			continue
		}
		files = append(files, f)
	}
	return files
}

func (l *loader) check(path string, files []*ast.File) *types.Package {
	cfg := types.Config{
		Importer:  l,
		GoVersion: "go1.22",
		Error:     func(err error) { l.errs = append(l.errs, err.Error()) },
	}
	p, _ := cfg.Check(path, l.fset, files, l.info)
	return p
}

// graph is reachability over package-level objects and methods of
// internal/*: roots are what the outside references, an edge runs from
// a production declaration to every object its source mentions.
type graph struct {
	edges map[types.Object][]types.Object
	roots []types.Object
}

// target returns the object a use refers to if it is one the rule is
// about — a package-level object or a method of a production package
// under internal/ — and nil otherwise.
func target(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		if o.IsField() {
			return nil
		}
		obj = o.Origin()
	case *types.TypeName, *types.Const:
	default:
		return nil
	}
	if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), internal) {
		return nil
	}
	if _, isFunc := obj.(*types.Func); !isFunc && obj.Parent() != obj.Pkg().Scope() {
		return nil
	}
	return obj
}

// add records every use under n: as edges from the owners when the
// file is production code of internal/*, otherwise as roots, except
// that a test says nothing about the package it tests.
func (g *graph) add(info *types.Info, n ast.Node, owners []types.Object, own string) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		t := target(info.Uses[id])
		if t == nil || (owners == nil && t.Pkg().Path() == own) {
			return true
		}
		if owners == nil {
			g.roots = append(g.roots, t)
		}
		for _, o := range owners {
			g.edges[o] = append(g.edges[o], t)
		}
		return true
	})
}

// addProduction walks one non-test file of an internal package
// declaration by declaration. init functions and blank variables run
// whether or not anything names them, so what they use is a root.
func (g *graph) addProduction(info *types.Info, f *ast.File) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.Name == "init" {
				g.add(info, d, nil, "")
				continue
			}
			g.add(info, d, []types.Object{info.Defs[d.Name]}, "")
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					g.add(info, s, []types.Object{info.Defs[s.Name]}, "")
				case *ast.ValueSpec:
					var owners []types.Object
					for _, n := range s.Names {
						if n.Name != "_" {
							owners = append(owners, info.Defs[n])
						}
					}
					g.add(info, s, owners, "")
				}
			}
		}
	}
}

// reach marks everything reachable from the roots. A method that makes
// its reached receiver type satisfy an interface is called through that
// interface, by fmt, sort, encoding/json or our own code, without any
// source naming it, so it is reached with its type.
func (g *graph) reach(ifaces []*types.Interface) map[types.Object]bool {
	seen := map[types.Object]bool{}
	work := append([]types.Object(nil), g.roots...)
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[o] {
			continue
		}
		seen[o] = true
		work = append(work, g.edges[o]...)
		tn, ok := o.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); satisfies(named, m.Name(), ifaces) {
				work = append(work, m)
			}
		}
	}
	return seen
}

func satisfies(named *types.Named, method string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				return true
			}
		}
	}
	return false
}

// name is how an object is reported and allowlisted: pkg.Ident, or
// pkg.Type.Method.
func name(o types.Object) string {
	if f, ok := o.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return o.Pkg().Name() + "." + n.Obj().Name() + "." + o.Name()
			}
		}
	}
	return o.Pkg().Name() + "." + o.Name()
}

// source is one parsed file and where it stands: the import path of the
// package it belongs to (for a test, the package it tests) and whether
// it is production code of internal/*.
type source struct {
	file       *ast.File
	path       string
	production bool
}

// tree is the module type-checked once for every test in this package.
type tree struct {
	l     *loader
	root  string
	files []source
}

var (
	loadOnce sync.Once
	loaded   *tree
	loadErr  error
)

// load type-checks every directory holding Go files as a package of the
// root module, or the one package of the benchmark module, which its
// go.mod's replace line makes a client of the same sources.
func load(t *testing.T) *tree {
	loadOnce.Do(func() { loaded, loadErr = loadTree() })
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loaded
}

func loadTree() (*tree, error) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &loader{
		fset: fset,
		root: root,
		std:  importer.ForCompiler(fset, "source", nil),
		prod: map[string]*production{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
	tr := &tree{l: l, root: root}

	var paths []string
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); p != root && (strings.HasPrefix(n, ".") || n == "bin" || n == "testdata") {
			return filepath.SkipDir
		}
		if m, _ := filepath.Glob(filepath.Join(p, "*.go")); len(m) > 0 {
			rel, _ := filepath.Rel(root, p)
			paths = append(paths, strings.TrimSuffix(module+"/"+filepath.ToSlash(rel), "/."))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, path := range paths {
		bp, err := build.Default.ImportDir(l.dir(path), 0)
		if _, noGo := err.(*build.NoGoError); err != nil && !noGo {
			return nil, err
		}
		if len(bp.GoFiles) > 0 {
			if _, err := l.Import(path); err != nil {
				return nil, err
			}
			for _, f := range l.prod[path].files {
				tr.files = append(tr.files, source{f, path, strings.HasPrefix(path, internal)})
			}
		}
		// A package's tests are checked against a second copy of its
		// production files, as the go tool compiles them; what they say
		// about their own package is dropped, what they say about any
		// other package counts.
		tests := func(as string, names, with []string) {
			if len(names) == 0 {
				return
			}
			files := l.parse(bp.Dir, names)
			l.check(as, append(l.parse(bp.Dir, with), files...))
			for _, f := range files {
				tr.files = append(tr.files, source{f, path, false})
			}
		}
		tests(path, bp.TestGoFiles, bp.GoFiles)
		tests(path+"_test", bp.XTestGoFiles, nil)
	}
	if len(l.errs) > 0 {
		return nil, fmt.Errorf("type-checking the module:\n%s", strings.Join(l.errs, "\n"))
	}
	return tr, nil
}

// where is how a failure points at a declaration: path from the module
// root and line.
func (tr *tree) where(pos token.Pos) string {
	p := tr.l.fset.Position(pos)
	rel, _ := filepath.Rel(tr.root, p.Filename)
	return fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line)
}

func TestEveryExportAnswersToACaller(t *testing.T) {
	tr := load(t)
	l := tr.l
	g := &graph{edges: map[types.Object][]types.Object{}}
	for _, s := range tr.files {
		if s.production {
			g.addProduction(l.info, s.file)
		} else {
			g.add(l.info, s.file, nil, s.path)
		}
	}

	// What the rule is about: every package-level object and method of
	// a production package under internal/.
	var objs []types.Object
	for path, p := range l.prod {
		if !strings.HasPrefix(path, internal) {
			continue
		}
		scope := p.types.Scope()
		for _, n := range scope.Names() {
			o := scope.Lookup(n)
			objs = append(objs, o)
			if tn, ok := o.(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					for i := 0; i < named.NumMethods(); i++ {
						objs = append(objs, named.Method(i))
					}
				}
			}
		}
	}

	// First without the allowlist, so that an entry which has gained a
	// caller is seen to be stale; then with its entries as roots, since
	// what an allowed identifier needs stays with it.
	ifaces := l.interfaces()
	seen := g.reach(ifaces)
	for _, o := range objs {
		if _, ok := allow[name(o)]; ok {
			if seen[o] {
				t.Errorf("allow[%q] is stale: the identifier is reached without it", name(o))
			}
			g.roots = append(g.roots, o)
		}
	}
	seen = g.reach(ifaces)
	var dead []string
	found := map[string]bool{}
	for _, o := range objs {
		found[name(o)] = true
		if o.Exported() && !seen[o] {
			dead = append(dead, name(o)+" "+tr.where(o.Pos()))
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d exported identifiers of internal/* that nothing outside their own package's tests reaches (delete them, or give the reason in allow):\n%s",
			len(dead), strings.Join(dead, "\n"))
	}
	for n := range allow {
		if !found[n] {
			t.Errorf("allow[%q] is stale: no such identifier", n)
		}
	}
	if len(allow) > 5 {
		t.Errorf("allowlist has %d entries, the limit is 5", len(allow))
	}
}

// allowFields is the allowlist of the field rule: option fields no
// caller sets that stay fields anyway, one reason each. Five at most.
var allowFields = map[string]string{
	"router.Config.Transport": "the seam router tests put a fault-injecting or counting RoundTripper through; production dials for itself",
	"router.Config.Seed":      "fixes the retry jitter so router tests can assert a failover order and timing",
	"dfm.Config.Hook":         "the per-task seam dfm tests inject faults through (faultinject); production runs with none",
}

// isOptionStruct reports whether a type is a bag of options by this
// tree's naming: a struct of internal/* called …Config, …Opts or
// …Options.
func isOptionStruct(tn *types.TypeName) (*types.Struct, bool) {
	n := tn.Name()
	if !strings.HasSuffix(n, "Config") && !strings.HasSuffix(n, "Opts") && !strings.HasSuffix(n, "Options") {
		return nil, false
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	return st, ok
}

// fieldOf returns the struct field an expression selects, or nil.
func fieldOf(info *types.Info, e ast.Expr) *types.Var {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

// setters records every field of another package that a file gives a
// value to: a keyed or positional composite literal, an assignment or
// ++/-- through a selector, or the field's address handed to someone
// who will write through it (flag.IntVar(&cfg.N, …)). Reading a field
// sets nothing.
func setters(info *types.Info, s source, set map[*types.Var]bool) {
	mark := func(v *types.Var) {
		if v != nil && v.Pkg() != nil && v.Pkg().Path() != s.path {
			set[v.Origin()] = true
		}
	}
	ast.Inspect(s.file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			t := info.Types[n].Type
			if t == nil {
				return true
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						v, _ := info.Uses[id].(*types.Var)
						mark(v)
					}
				} else if i < st.NumFields() {
					mark(st.Field(i))
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mark(fieldOf(info, lhs))
			}
		case *ast.IncDecStmt:
			mark(fieldOf(info, n.X))
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(fieldOf(info, n.X))
			}
		}
		return true
	})
}

// TestEveryOptionFieldAnswersToASetter is the same question one level
// down: an exported field of an option struct of internal/* is an
// option only if some caller — a file of cmd/, examples/, benchmark/ or
// the root package, or another package's code or tests — gives it a
// value. A field nobody sets has one value, its default, and is a
// constant with a doc comment and a zero-means-default branch attached.
func TestEveryOptionFieldAnswersToASetter(t *testing.T) {
	tr := load(t)
	set := map[*types.Var]bool{}
	for _, s := range tr.files {
		setters(tr.l.info, s, set)
	}
	var unset []string
	found := map[string]bool{}
	total := 0
	for path, p := range tr.l.prod {
		if !strings.HasPrefix(path, internal) {
			continue
		}
		scope := p.types.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := isOptionStruct(tn)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() {
					continue
				}
				total++
				id := p.types.Name() + "." + tn.Name() + "." + f.Name()
				found[id] = true
				_, allowed := allowFields[id]
				switch {
				case allowed && set[f]:
					t.Errorf("allowFields[%q] is stale: the field has a setter without it", id)
				case !allowed && !set[f]:
					unset = append(unset, id+" "+tr.where(f.Pos()))
				}
			}
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("%d of %d exported option fields of internal/* that nothing outside their own package's tests sets (make it a constant or add the caller):\n%s",
			len(unset), total, strings.Join(unset, "\n"))
	}
	for id := range allowFields {
		if !found[id] {
			t.Errorf("allowFields[%q] is stale: no such field", id)
		}
	}
	if len(allowFields) > 5 {
		t.Errorf("field allowlist has %d entries, the limit is 5", len(allowFields))
	}
	t.Logf("%d exported option fields", total)
}
