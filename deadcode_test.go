package bench

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// productionOnlyExempt lists the internal/ functions that only test files
// reach but that stay on purpose: fixtures, probes and oracles that tests
// outside the declaring file use, so each test does not grow its own
// copy. Keys are "importpath.Func" or "importpath.(Type).Method"; the
// value says who uses the entry.
var productionOnlyExempt = map[string]string{
	"vaq/internal/topo.Linear":                     "line-device fixture for the route tests",
	"vaq/internal/topo.Ring5":                      "ring-device fixture for the route and device tests",
	"vaq/internal/topo.Mesh2x3":                    "the 2×3 mesh of the paper's Figures 3 and 11, pinned by the topo tests",
	"vaq/internal/clock.NewFake":                   "fake clock the jobs and serve tests drive",
	"vaq/internal/clock.(Fake).Pending":            "lets the jobs tests wait for a sleeper without sleeping",
	"vaq/internal/clock.(Fake).Advance":            "moves a fake clock forward in the jobs and serve tests",
	"vaq/internal/portfolio.(Result).ClearTimings": "strips wall-clock fields so the portfolio tests compare results byte for byte",
	"vaq/internal/graphx.(Rows).Filled":            "row-laziness probe for the route and graphx tests",
	"vaq/internal/metrics.(Counter).Value":         "reads a counter back in the jobs tests",
	"vaq/internal/circuit.(Circuit).Y":             "gate builder for the circuits the statevec tests replay",
	"vaq/internal/circuit.(Circuit).Z":             "gate builder for the circuits the statevec and route tests replay",
	"vaq/internal/circuit.(Circuit).S":             "gate builder for the circuits the statevec, route and transpile tests replay",
	"vaq/internal/circuit.(Circuit).Sdg":           "gate builder for the circuits the statevec and transpile tests replay",
	"vaq/internal/circuit.(Circuit).CZ":            "gate builder for the circuits the statevec tests replay",
	"vaq/internal/stabilizer.(State).Clone":        "forks a tableau per measurement branch in the statevec cross-check test",
	"vaq/internal/statevec.Fidelity":               "state-vector oracle of route's VerifyState test and the statevec tests",
}

// TestEveryFunctionHasAProductionCaller type-checks every non-test
// package of the module, the examples and the nested perfbench module,
// and fails on any function or method declared under internal/ that no
// non-test file references. Code only tests reach is dead weight: it
// must be deleted with its tests, or moved into the test files that use
// it. Methods that satisfy an interface are reached through it and are
// not reported; neither are the shared fixtures in productionOnlyExempt.
func TestEveryFunctionHasAProductionCaller(t *testing.T) {
	l := newModuleLoader(t)
	l.loadAll()

	ifaces := l.interfaces()
	var dead []string
	for _, d := range l.decls {
		fn := d.obj
		if l.used[fn] || productionOnlyExempt[funcKey(fn)] != "" {
			continue
		}
		if sig := fn.Type().(*types.Signature); sig.Recv() != nil && implementsAny(sig.Recv().Type(), fn.Name(), ifaces) {
			continue
		}
		dead = append(dead, l.fset.Position(d.pos).String()+": "+funcKey(fn))
	}
	for key := range productionOnlyExempt {
		if !l.declared[key] {
			t.Errorf("productionOnlyExempt names %s, which is not declared under internal/", key)
		}
	}
	sort.Strings(dead)
	for _, line := range dead {
		t.Errorf("%s has no caller outside test files", line)
	}
}

// writeOnlyExempt lists the fields of internal/ struct types that no
// non-test code reads but that stay on purpose: a test's only view of
// what production code did. Keys are "importpath.Type.Field"; the value
// names the test that reads the entry.
var writeOnlyExempt = map[string]string{}

// TestEveryFieldIsRead fails on any field of a named struct type declared
// under internal/ that non-test code of the module, the examples and the
// perfbench module writes but never reads. A composite-literal key and
// the selector on the left of a plain = or := are writes; every other
// use (+=, ++, &x.f, a read inside a method) is a read. All fields of a
// struct count as read when the struct is a map key, an operand of == or
// !=, or has a tagged field (encoding/json reads those by reflection).
// Embedded fields promote methods as well as fields and are not checked.
func TestEveryFieldIsRead(t *testing.T) {
	l := newModuleLoader(t)
	l.loadAll()

	declared := map[string]bool{}
	var dead []string
	for _, d := range l.fields {
		declared[d.key] = true
		if !l.read[d.obj] && writeOnlyExempt[d.key] == "" {
			dead = append(dead, l.fset.Position(d.obj.Pos()).String()+": "+d.key)
		}
	}
	for key := range writeOnlyExempt {
		if !declared[key] {
			t.Errorf("writeOnlyExempt names %s, which is not a field declared under internal/", key)
		}
	}
	sort.Strings(dead)
	for _, line := range dead {
		t.Errorf("%s is never read outside test files", line)
	}
}

// moduleLoader type-checks the packages of module vaq (and of the
// nested vaq/perfbench module) from source, recording which functions
// each non-test file references and which struct fields it reads.
// Standard-library imports go to the "source" importer.
type moduleLoader struct {
	t        *testing.T
	fset     *token.FileSet
	std      types.ImporterFrom
	pkgs     map[string]*types.Package
	info     *types.Info
	decls    []funcDecl
	declared map[string]bool
	used     map[*types.Func]bool
	fields   []fieldDecl
	read     map[*types.Var]bool
}

type funcDecl struct {
	obj *types.Func
	pos token.Pos
}

type fieldDecl struct {
	obj *types.Var
	key string // "importpath.Type.Field"
}

func newModuleLoader(t *testing.T) *moduleLoader {
	fset := token.NewFileSet()
	return &moduleLoader{
		t:        t,
		fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:     map[string]*types.Package{},
		info:     &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
		declared: map[string]bool{},
		used:     map[*types.Func]bool{},
		read:     map[*types.Var]bool{},
	}
}

// loadAll loads every package of the module, the examples and the nested
// perfbench module.
func (l *moduleLoader) loadAll() {
	if err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() || path == "." { // the root package holds only tests
			return nil
		}
		name := d.Name()
		if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
			return filepath.SkipDir
		}
		l.load("vaq/" + filepath.ToSlash(path))
		return nil
	}); err != nil {
		l.t.Fatal(err)
	}
}

func (l *moduleLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, ".", 0)
}

func (l *moduleLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if strings.HasPrefix(path, "vaq/") {
		return l.load(path), nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// load type-checks the non-test files of the package at import path
// (once) and returns it, or nil when the directory holds no Go package.
func (l *moduleLoader) load(path string) *types.Package {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg
	}
	l.pkgs[path] = nil
	dir := strings.TrimPrefix(path, "vaq/")
	entries, err := os.ReadDir(dir)
	if err != nil {
		l.t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			l.t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		l.t.Fatalf("type-check %s: %v", path, err)
	}
	l.pkgs[path] = pkg
	for _, f := range files {
		l.record(path, f)
	}
	return pkg
}

// record notes the functions and struct fields f declares (when it lies
// under internal/), the functions it references outside their own
// bodies, so a recursive call does not keep a function alive, and the
// fields it reads.
func (l *moduleLoader) record(path string, f *ast.File) {
	internal := strings.HasPrefix(path, "vaq/internal/")
	var self *types.Func
	writes := map[*ast.Ident]bool{} // field names a write spells
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			fn, _ := l.info.Defs[n.Name].(*types.Func)
			self = fn
			if internal && fn != nil && fn.Name() != "init" && fn.Name() != "_" {
				l.decls = append(l.decls, funcDecl{fn, n.Pos()})
				l.declared[funcKey(fn)] = true
			}
		case *ast.TypeSpec:
			if internal {
				l.declareFields(path, n)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
				for _, lhs := range n.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						writes[sel.Sel] = true
					}
				}
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						writes[id] = true
					}
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				l.readAll(l.info.TypeOf(n.X))
				l.readAll(l.info.TypeOf(n.Y))
			}
		case *ast.MapType:
			if m, ok := l.info.TypeOf(n).(*types.Map); ok {
				l.readAll(m.Key())
			}
		case *ast.Ident:
			switch obj := l.info.Uses[n].(type) {
			case *types.Func:
				if obj.Origin() != self {
					l.used[obj.Origin()] = true
				}
			case *types.Var:
				if obj.IsField() && !writes[n] {
					l.read[obj.Origin()] = true
				}
			}
		}
		return true
	})
}

// declareFields notes the fields of the struct type spec declares, unless
// one of them is tagged: encoding/json reads such a struct's fields by
// reflection.
func (l *moduleLoader) declareFields(path string, spec *ast.TypeSpec) {
	st, ok := spec.Type.(*ast.StructType)
	if !ok || spec.Assign.IsValid() {
		return
	}
	for _, fd := range st.Fields.List {
		if fd.Tag != nil {
			return
		}
	}
	for _, fd := range st.Fields.List {
		for _, name := range fd.Names { // an embedded field has none
			if v, ok := l.info.Defs[name].(*types.Var); ok {
				l.fields = append(l.fields, fieldDecl{v, path + "." + spec.Name.Name + "." + name.Name})
			}
		}
	}
}

// readAll marks every field of t read when t is a struct or an array of
// them, recursing into the fields: comparing or hashing a struct value
// reads all of it.
func (l *moduleLoader) readAll(t types.Type) {
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Array:
		l.readAll(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if f := u.Field(i).Origin(); !l.read[f] {
				l.read[f] = true
				l.readAll(f.Type())
			}
		}
	}
}

// interfaces returns every non-empty interface type the loaded code can
// convert a value to: those it spells out, and the named interfaces of
// every package it imports, standard library included (fmt.Stringer,
// json.Marshaler, sort.Interface, ...).
func (l *moduleLoader) interfaces() []*types.Interface {
	var out []*types.Interface
	have := map[*types.Interface]bool{}
	// Only the method set matters: a generic constraint such as
	// interface{ *R; check(int) error } is rebuilt without its type
	// terms, so that the types it admits implement it.
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !have[it] {
			have[it] = true
			methods := make([]*types.Func, it.NumMethods())
			for i := range methods {
				methods[i] = it.Method(i)
			}
			out = append(out, types.NewInterfaceType(methods, nil).Complete())
		}
	}
	for _, tv := range l.info.Types {
		add(tv.Type)
	}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.pkgs {
		walk(p)
	}
	// errors.Is, As and Unwrap assert these method sets inside their
	// bodies, where no package scope shows them.
	errType := types.Universe.Lookup("error").Type()
	add(errType)
	for _, m := range []struct {
		name    string
		in, out types.Type
	}{
		{"Unwrap", nil, errType},
		{"Unwrap", nil, types.NewSlice(errType)},
		{"Is", errType, types.Typ[types.Bool]},
		{"As", types.Universe.Lookup("any").Type(), types.Typ[types.Bool]},
	} {
		var params *types.Tuple
		if m.in != nil {
			params = types.NewTuple(types.NewVar(token.NoPos, nil, "", m.in))
		}
		sig := types.NewSignatureType(nil, nil, nil, params, types.NewTuple(types.NewVar(token.NoPos, nil, "", m.out)), false)
		add(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, m.name, sig)}, nil))
	}
	return out
}

// implementsAny reports whether recv (or a pointer to it) implements an
// interface in ifaces that has a method called name.
func implementsAny(recv types.Type, name string, ifaces []*types.Interface) bool {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	ptr := types.NewPointer(recv)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name && (types.Implements(recv, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}

// funcKey names fn as "importpath.Func" or "importpath.(Type).Method".
func funcKey(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, _ := recv.(*types.Named)
	return fn.Pkg().Path() + ".(" + named.Obj().Name() + ")." + fn.Name()
}
