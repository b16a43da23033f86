// Command surface audits the API surface of internal/**: it fails when
//
//   - a field of an internal/** struct named *Options has no setter in a
//     non-test file outside its own package (a keyed or positional
//     composite literal of the struct, or an assignment to the field): an
//     option nothing sets has one value in use and should be a constant;
//   - an exported identifier of an internal/** package — function, type,
//     constant, variable, method or struct field — has no reference in
//     any non-test file: an API only its own tests keep alive.
//
// It type-checks the non-test files of cmd/, examples/, internal/ and
// bench/ from source with the standard library alone (go/parser,
// go/types), so method, field and package-level names are told apart. A
// method counts as referenced when its receiver implements an interface
// that declares it. Findings listed in scripts/surface/allow.txt, each with
// a reason, are exempt; an entry that matches no finding is itself an error,
// so the list cannot outlive what it excuses.
//
// Run from the repository root: go run ./scripts/surface
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const (
	modulePath   = "repro"
	auditedPaths = modulePath + "/internal/"
	allowFile    = "scripts/surface/allow.txt"
)

var roots = []string{"cmd", "examples", "internal", "bench"}

// loader type-checks the repository's packages from their non-test
// files, on demand and once each; everything else (the standard library)
// is imported from source too.
type loader struct {
	fset   *token.FileSet
	std    types.Importer
	dirs   map[string]string   // import path -> directory
	loaded map[string]*checked // nil while a package is being checked
	errs   []error
}

// checked is one type-checked package of the repository.
type checked struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

func (l *loader) Import(path string) (*types.Package, error) {
	dir, ours := l.dirs[path]
	if !ours {
		return l.std.Import(path)
	}
	if c, started := l.loaded[path]; started {
		if c == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return c.pkg, nil
	}
	l.loaded[path] = nil
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
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
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l, Error: func(err error) { l.errs = append(l.errs, err) }}
	pkg, _ := conf.Check(path, l.fset, files, info)
	l.loaded[path] = &checked{pkg, info, files}
	return pkg, nil
}

// goDirs maps the import path of every directory under the roots that
// holds non-test Go files to that directory.
func goDirs() (map[string]string, error) {
	dirs := make(map[string]string)
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				dir := filepath.Dir(path)
				dirs[modulePath+"/"+filepath.ToSlash(dir)] = dir
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// origin maps an instantiated generic method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// namedStruct returns the struct behind a named struct type or a pointer
// to one, nil for anything else.
func namedStruct(t types.Type) *types.Struct {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if _, named := t.(*types.Named); !named {
		return nil
	}
	s, _ := t.Underlying().(*types.Struct)
	return s
}

func main() {
	// Pure-Go variants of the standard library: no cgo tool, no C compiler.
	build.Default.CgoEnabled = false
	dirs, err := goDirs()
	if err != nil {
		fatal(err)
	}
	l := &loader{
		fset:   token.NewFileSet(),
		dirs:   dirs,
		loaded: make(map[string]*checked),
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	paths := make([]string, 0, len(dirs))
	for p := range dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			fatal(err)
		}
	}
	if len(l.errs) > 0 {
		for _, err := range l.errs {
			fmt.Fprintln(os.Stderr, err)
		}
		fatal(fmt.Errorf("%d type errors", len(l.errs)))
	}

	// Option fields of internal/**, by declaration.
	optField := make(map[types.Object]string) // field -> "pkg.Type.Field"
	for _, p := range paths {
		if !strings.HasPrefix(p, auditedPaths) {
			continue
		}
		scope := l.loaded[p].pkg.Scope()
		for _, name := range scope.Names() {
			tn, _ := scope.Lookup(name).(*types.TypeName)
			if tn == nil || !strings.HasSuffix(name, "Options") {
				continue
			}
			if st := namedStruct(tn.Type()); st != nil {
				for i := 0; i < st.NumFields(); i++ {
					optField[st.Field(i)] = p + "." + name + "." + st.Field(i).Name()
				}
			}
		}
	}

	// One pass over every file: references, and option setters made
	// outside the option's package.
	used := make(map[types.Object]bool)
	set := make(map[types.Object]bool)
	for _, p := range paths {
		info, pkg := l.loaded[p].info, l.loaded[p].pkg
		for _, obj := range info.Uses {
			used[origin(obj)] = true
		}
		setField := func(f types.Object) {
			f = origin(f)
			if _, opt := optField[f]; opt && f.Pkg() != pkg {
				set[f] = true
			}
		}
		assigned := func(lhs ast.Expr) {
			if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
				if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					setField(s.Obj())
				}
			}
		}
		for _, f := range l.loaded[p].files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						assigned(lhs)
					}
				case *ast.IncDecStmt:
					assigned(n.X)
				case *ast.CompositeLit:
					st := namedStruct(info.Types[n].Type)
					if st == nil {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								setField(info.Uses[key])
							}
						} else if i < st.NumFields() {
							setField(st.Field(i))
						}
					}
				}
				return true
			})
		}
	}

	// Every named interface the program can see, the standard library's
	// included: a method that satisfies one of them is reached through it.
	var ifaces []*types.Interface
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := make(map[*types.Package]bool)
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, _ := scope.Lookup(name).(*types.TypeName)
			if tn == nil {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, p := range paths {
		visit(l.loaded[p].pkg)
	}
	errorIface := ifaces[0]
	viaInterface := func(n *types.Named, method string) bool {
		// Package errors reaches these through unnamed interfaces.
		if (method == "Unwrap" || method == "Is" || method == "As") &&
			(types.Implements(n, errorIface) || types.Implements(types.NewPointer(n), errorIface)) {
			return true
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == method &&
					(types.Implements(n, it) || types.Implements(types.NewPointer(n), it)) {
					return true
				}
			}
		}
		return false
	}

	var findings []string
	for f, name := range optField {
		if !set[f] {
			findings = append(findings, name+": option with no non-test setter outside its package")
		}
	}
	for _, p := range paths {
		if !strings.HasPrefix(p, auditedPaths) {
			continue
		}
		unreferenced := func(obj types.Object, name string) {
			if obj.Exported() && !used[obj] {
				findings = append(findings, p+"."+name+": exported, with no non-test reference")
			}
		}
		scope := l.loaded[p].pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			unreferenced(obj, name)
			tn, _ := obj.(*types.TypeName)
			if tn == nil || tn.IsAlias() {
				continue
			}
			n, _ := tn.Type().(*types.Named)
			if n == nil {
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				if m := n.Method(i); !viaInterface(n, m.Name()) {
					unreferenced(m, name+"."+m.Name())
				}
			}
			switch u := n.Underlying().(type) {
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					if f := u.Field(i); !f.Embedded() {
						if _, opt := optField[f]; !opt { // options answer to the stricter rule
							unreferenced(f, name+"."+f.Name())
						}
					}
				}
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					unreferenced(u.ExplicitMethod(i), name+"."+u.ExplicitMethod(i).Name())
				}
			}
		}
	}

	allowed, err := readAllow()
	if err != nil {
		fatal(err)
	}
	sort.Strings(findings)
	failed := false
	for _, f := range findings {
		id := f[:strings.Index(f, ": ")]
		if _, ok := allowed[id]; ok {
			delete(allowed, id)
			continue
		}
		fmt.Println(f)
		failed = true
	}
	for id := range allowed {
		fmt.Printf("%s: listed in %s but not a finding; remove the line\n", id, allowFile)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// readAllow reads the allowlist: one "identifier reason…" per line, '#'
// comments and blank lines aside. A line without a reason is an error.
func readAllow() (map[string]string, error) {
	f, err := os.Open(allowFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allowed := make(map[string]string)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		id, reason, _ := strings.Cut(text, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", allowFile, line, id)
		}
		allowed[id] = strings.TrimSpace(reason)
	}
	return allowed, sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "surface:", err)
	os.Exit(2)
}
