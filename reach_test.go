package repro

// The reachability check: every exported name declared under internal/
// must be reached from non-test code somewhere in the repository — a
// command, an experiment, an example, perfbench, or another internal
// package — or carry an allowlist entry saying why it stays. A mechanism
// that only its own tests reach belongs in a test file, not in the
// program. The check type-checks the non-test sources with go/types, so a
// method counts as used only where a selector resolves to it (or to an
// interface method it implements), not wherever its name appears.

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// reachAllow lists the exported names that no non-test code reaches but
// that stay, each with its reason. An entry is an exact name
// ("lts.GenerateCalls") or a whole package ("faultinject.*"). What an
// entry uses counts as reached.
var reachAllow = map[string]string{
	"faultinject.*": "production code calls the hooks so that tests can arm them",

	"lts.GenerateCalls":    "tests in other packages count successor calls with it",
	"lts.(*LTS).NumAux":    "tests in other packages check the Aux handles with it",
	"lts.BindSlotsForTest": "tests in other packages build the reference chain of a rate point with it",
	"dist.NewErlang":       "kept for ROADMAP item 11, the Erlang-k bridge between the Markovian and general phases",
}

const reachModule = "repro"

// TestExportedNamesReached fails on every exported name under internal/
// that the non-test code of the repository does not reach and reachAllow
// does not name, and on every reachAllow entry that names nothing left
// unreached.
func TestExportedNamesReached(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := loadNonTestPackages(fset)
	if err != nil {
		t.Fatal(err)
	}
	g, err := newUseGraph(fset, pkgs, reachModule+"/internal/")
	if err != nil {
		t.Fatal(err)
	}
	if bad := g.unreached(allowed); len(bad) > 0 {
		t.Errorf("%d exported names under internal/ are not reached from non-test code; "+
			"delete them, move them into a _test.go file, or add a reasoned entry to reachAllow:\n\t%s",
			len(bad), strings.Join(bad, "\n\t"))
	}
	// An entry that matches no name the program leaves unreached is stale.
	all := g.unreached(func(string) bool { return false })
	for entry := range reachAllow {
		if !slices.ContainsFunc(all, func(n string) bool { return matchAllow(entry, n) }) {
			t.Errorf("reachAllow entry %q matches no unreached name; remove it", entry)
		}
	}
}

// TestUseGraphCases runs the analysis on small in-memory packages so that
// each rule is pinned by a case of its own.
func TestUseGraphCases(t *testing.T) {
	cases := []struct {
		name string
		pkgs map[string]string // import path -> one file's source
		want []string          // flagged names after the allowlist
	}{{
		name: "type reached only by its receivers and a blank assertion",
		pkgs: map[string]string{
			"repro/internal/a": `package a
type I interface{ M() }
type T struct{}
func (t *T) M() {}
func (t T) N() T { return t }
var _ I = (*T)(nil)
func Use(i I) { i.M() }`,
			"repro/cmd/c": `package main
import "repro/internal/a"
func main() { a.Use(nil) }`,
		},
		// M is reached through I.M; T and N are not reached at all.
		want: []string{"a.T", "a.T.N"},
	}, {
		name: "names used from a sibling package",
		pkgs: map[string]string{
			"repro/internal/a": `package a
type T struct{ X int }
func (T) Get() int { return 1 }
const K = 2
var V = 3`,
			"repro/internal/b": `package b
import "repro/internal/a"
func F() int { var t a.T; return t.Get() + a.K + a.V }`,
			"repro/cmd/c": `package main
import "repro/internal/b"
func main() { _ = b.F() }`,
		},
		want: nil,
	}, {
		name: "allowlisted names",
		pkgs: map[string]string{
			"repro/internal/lts": `package lts
func GenerateCalls() int { return 0 }
type LTS struct{}
func (l *LTS) NumAux() int { return 0 }
func Dead() {}`,
			"repro/cmd/c": `package main
import "repro/internal/lts"
func main() { _ = new(lts.LTS) }`,
			"repro/internal/faultinject": `package faultinject
func Arm() {}`,
		},
		want: []string{"lts.Dead"},
	}, {
		name: "methods the standard library calls dynamically",
		pkgs: map[string]string{
			"repro/internal/a": `package a
type E struct{ err error }
func (e *E) Error() string { return "" }
func (e *E) Unwrap() error { return e.err }
func (e *E) Other() int { return 0 }
type K int
func (k K) String() string { return "" }
func New() error { var k K; _ = k; return &E{} }`,
			"repro/cmd/c": `package main
import "repro/internal/a"
func main() { _ = a.New() }`,
		},
		// Error, Unwrap and String are reached with their types; Other is not.
		want: []string{"a.(*E).Other"},
	}, {
		name: "recursion and unreached callers are not uses",
		pkgs: map[string]string{
			"repro/internal/a": `package a
func F(n int) int { if n == 0 { return 0 }; return F(n - 1) }
func Dead() int { return Helper() }
func Helper() int { return 1 }`,
		},
		want: []string{"a.Dead", "a.F", "a.Helper"},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			pkgs := map[string][]*ast.File{}
			for path, src := range tc.pkgs {
				f, err := parser.ParseFile(fset, path+"/x.go", src, 0)
				if err != nil {
					t.Fatal(err)
				}
				pkgs[path] = []*ast.File{f}
			}
			g, err := newUseGraph(fset, pkgs, reachModule+"/internal/")
			if err != nil {
				t.Fatal(err)
			}
			got := g.unreached(allowed)
			if !slices.Equal(got, tc.want) {
				t.Errorf("flagged %q, want %q", got, tc.want)
			}
		})
	}
}

// loadNonTestPackages parses the non-test Go files that the current build
// context selects in every directory of the repository — internal/, cmd/,
// examples/, perfbench/ and the root — keyed by import path. perfbench is
// its own module (repro/perfbench), so its import paths follow from the
// directory layout like the rest.
func loadNonTestPackages(fset *token.FileSet) (map[string][]*ast.File, error) {
	pkgs := map[string][]*ast.File{}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err != nil {
			return err
		}
		path := reachModule
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return err
			}
			pkgs[path] = append(pkgs[path], f)
		}
		return nil
	})
	return pkgs, err
}

// useGraph is the use graph of the exported declarations of the packages
// under one import-path prefix, built from the type-checked non-test
// sources of every package that may use them.
type useGraph struct {
	names map[types.Object]string
	// edges[d] lists the tracked declarations and interface methods that
	// the declaration d uses; edges[nil] holds the uses from code that is
	// reached regardless: main packages and unexported code.
	edges map[types.Object][]types.Object
	// methods lists the tracked methods, for dispatch through interfaces.
	methods []*types.Func
}

// dynamicMethods declares the interfaces through which the standard
// library calls a type's methods without naming them: fmt prints through
// String and Error, errors.Is and errors.As unwrap through Unwrap and Is,
// and sort.Sort orders through sort.Interface.
const dynamicMethods = `package dyn
type (
	stringer  interface{ String() string }
	unwrapper interface{ Unwrap() error }
	iser      interface{ Is(error) bool }
	sorter    interface {
		Len() int
		Less(i, j int) bool
		Swap(i, j int)
	}
)`

// dynamicInterfaces returns error and the interfaces of dynamicMethods.
func dynamicInterfaces(fset *token.FileSet) []*types.Interface {
	f, err := parser.ParseFile(fset, "dyn.go", dynamicMethods, 0)
	if err != nil {
		panic(err)
	}
	dyn, err := new(types.Config).Check("dyn", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, name := range dyn.Scope().Names() {
		ifaces = append(ifaces, dyn.Scope().Lookup(name).Type().Underlying().(*types.Interface))
	}
	return ifaces
}

// newUseGraph type-checks pkgs and records which code uses each exported
// top-level func, type, var and const and each exported method declared
// in the packages whose import path starts with prefix. A use inside the
// name's own declaration does not count; for a type, neither do its own
// methods (receivers and bodies), and no blank assertion such as
// var _ I = (*T)(nil) counts for anything. A method is used by a selector
// that resolves to it or to an interface method it implements.
func newUseGraph(fset *token.FileSet, pkgs map[string][]*ast.File, prefix string) (*useGraph, error) {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
	checked := map[string]*types.Package{}
	std := importer.ForCompiler(fset, "source", nil)
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		files, ok := pkgs[path]
		if !ok {
			return std.Import(path)
		}
		conf := types.Config{Importer: imp}
		p, err := conf.Check(path, fset, files, info)
		checked[path] = p
		return p, err
	}
	paths := make([]string, 0, len(pkgs))
	for path := range pkgs {
		paths = append(paths, path)
	}
	slices.Sort(paths)
	for _, path := range paths {
		if _, err := imp(path); err != nil {
			return nil, err
		}
	}

	// tracked maps each exported declaration to its printed name and the
	// source ranges whose uses of it do not count.
	type decl struct {
		name string
		own  []posRange
	}
	tracked := map[types.Object]*decl{}
	// Types first, so that every method's receiver is known.
	for _, path := range paths {
		short, ok := strings.CutPrefix(path, prefix)
		if !ok {
			continue
		}
		for _, f := range pkgs[path] {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, s := range gd.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							tracked[info.Defs[s.Name]] = &decl{short + "." + s.Name.Name, []posRange{{s.Pos(), s.End()}}}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								tracked[info.Defs[n]] = &decl{short + "." + n.Name, []posRange{{s.Pos(), s.End()}}}
							}
						}
					}
				}
			}
		}
		for _, f := range pkgs[path] {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				own := posRange{fd.Pos(), fd.End()}
				if fd.Recv == nil {
					if fd.Name.IsExported() {
						tracked[info.Defs[fd.Name]] = &decl{short + "." + fd.Name.Name, []posRange{own}}
					}
					continue
				}
				tn, star := recvType(info, fd)
				if td := tracked[tn]; td != nil {
					td.own = append(td.own, own)
				}
				if fd.Name.IsExported() && tn != nil {
					r := short + "." + tn.Name()
					if star {
						r = short + ".(*" + tn.Name() + ")"
					}
					tracked[info.Defs[fd.Name]] = &decl{r + "." + fd.Name.Name, []posRange{own}}
				}
			}
		}
	}

	// The use graph: edges[d] lists what the declaration of d uses, and
	// edges[nil] what code that is reached regardless uses.
	edges := map[types.Object][]types.Object{}
	visit := func(n ast.Node, d types.Object) {
		if tracked[d] == nil {
			d = nil
		}
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				obj := origin(info.Uses[id])
				if td := tracked[obj]; isInterfaceMethod(obj) || td != nil && !within(id.Pos(), td.own) {
					edges[d] = append(edges[d], obj)
				}
			}
			return true
		})
	}
	for _, path := range paths {
		for _, f := range pkgs[path] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					visit(d, info.Defs[d.Name])
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							visit(s, info.Defs[s.Name])
						case *ast.ValueSpec:
							if !allBlank(s.Names) { // an assertion uses nothing
								visit(s, info.Defs[s.Names[0]])
							}
						}
					}
				}
			}
		}
	}

	g := &useGraph{names: map[types.Object]string{}, edges: edges}
	for obj, d := range tracked {
		g.names[obj] = d.name
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			g.methods = append(g.methods, fn)
		}
	}
	// A type reaches its methods that the standard library calls
	// dynamically.
	ifaces := dynamicInterfaces(fset)
	for _, fn := range g.methods {
		for _, iface := range ifaces {
			if m, _, _ := types.LookupFieldOrMethod(iface, false, nil, fn.Name()); m != nil && implements(fn, iface) {
				var tn types.Object = recvNamed(fn).Obj()
				if _, ok := g.names[tn]; !ok {
					tn = nil // an unexported type: its methods are reached regardless
				}
				g.edges[tn] = append(g.edges[tn], fn)
			}
		}
	}
	return g, nil
}

// unreached returns, sorted, the tracked names that no reached code uses.
// Code is reached when it is not a tracked declaration, or when it
// declares a reached name or one that keep accepts, so a name used only
// by another unreached name is unreached with it. Reaching an interface
// method reaches every tracked method that implements it. Names are
// printed relative to the prefix: "dist.NewErlang",
// "ctmc.(*CTMC).SolveBatch", "stats.Interval.String".
func (g *useGraph) unreached(keep func(name string) bool) []string {
	reached := map[types.Object]bool{}
	queue := []types.Object{nil}
	for obj, name := range g.names {
		if keep(name) {
			reached[obj] = true
			queue = append(queue, obj)
		}
	}
	for len(queue) > 0 {
		ctx := queue[0]
		queue = queue[1:]
		for _, obj := range g.edges[ctx] {
			if reached[obj] {
				continue
			}
			reached[obj] = true
			queue = append(queue, obj)
			if !isInterfaceMethod(obj) {
				continue
			}
			iface := obj.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			for _, fn := range g.methods {
				if fn.Name() == obj.Name() && !reached[fn] && implements(fn, iface) {
					reached[fn] = true
					queue = append(queue, fn)
				}
			}
		}
	}
	var out []string
	for obj, name := range g.names {
		if !reached[obj] {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}

// recvNamed returns the named type method fn is declared on.
func recvNamed(fn *types.Func) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Origin()
}

// recvType returns the named type a method is declared on and whether
// its receiver is a pointer.
func recvType(info *types.Info, fd *ast.FuncDecl) (*types.TypeName, bool) {
	recv := fd.Recv.List[0].Type
	star := false
	if s, ok := recv.(*ast.StarExpr); ok {
		recv, star = s.X, true
	}
	switch r := recv.(type) {
	case *ast.IndexExpr:
		recv = r.X
	case *ast.IndexListExpr:
		recv = r.X
	}
	id, _ := recv.(*ast.Ident)
	tn, _ := info.Uses[id].(*types.TypeName)
	return tn, star
}

// origin maps a use of an instantiated generic func, method or field to
// its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func isInterfaceMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// implements reports whether the receiver type of method fn, through a
// pointer, implements iface.
func implements(fn *types.Func, iface *types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	return types.Implements(types.NewPointer(recv), iface)
}

func within(p token.Pos, rs []posRange) bool {
	for _, r := range rs {
		if r.from <= p && p < r.to {
			return true
		}
	}
	return false
}

type posRange struct{ from, to token.Pos }

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func allBlank(names []*ast.Ident) bool {
	for _, n := range names {
		if n.Name != "_" {
			return false
		}
	}
	return len(names) > 0
}

// allowed reports whether an entry of reachAllow matches name.
func allowed(name string) bool {
	for entry := range reachAllow {
		if matchAllow(entry, name) {
			return true
		}
	}
	return false
}

// matchAllow reports whether the allowlist entry matches name: exactly,
// or for "pkg.*" any name of pkg.
func matchAllow(entry, name string) bool {
	if pkg, ok := strings.CutSuffix(entry, ".*"); ok {
		return strings.HasPrefix(name, pkg+".")
	}
	return entry == name
}
