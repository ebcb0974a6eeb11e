// Command reachrefs lists the exported functions and methods of the
// module's internal/ packages that no non-test file of the module
// references, one per line in scripts/reach.allow's form (pkg.Func,
// pkg.T.Method, pkg.(*T).Method).
//
// It is the source-level half of scripts/reach.sh. The symbol scan
// there cannot see an unused exported method, because a binary that
// formats or templates a value keeps every exported method of its type
// linked. Here a method counts as used when some non-test file names
// it (a call, a method value or expression, a promoted selector),
// except from inside its own body. A method is exempt when its
// receiver type satisfies an interface that declares it (error,
// fmt.Stringer, sort.Interface, an interface of the module, an inline
// interface of a type assertion): such a method is reached through the
// interface, and the reference the pass sees is the interface's.
//
// Every package is type-checked from its non-test sources; imports
// outside the module come from the export data `go list -export`
// reports. Standard library and the go tool only.
//
// Usage: go run ./scripts/reachrefs   (from the module root)
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// listed is the part of `go list -json` output the pass reads.
type listed struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Module     *struct{ Path string }
}

func main() {
	out, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "reachrefs:", err)
		os.Exit(1)
	}
	for _, s := range out {
		fmt.Println(s)
	}
}

func run() ([]string, error) {
	mod, err := goCmd("list", "-m")
	if err != nil {
		return nil, err
	}
	modPath := strings.TrimSpace(string(mod))
	raw, err := goCmd("list", "-deps", "-export", "-json=ImportPath,Dir,Export,GoFiles,Module", "./...")
	if err != nil {
		return nil, err
	}
	var own []listed // the module's packages, dependencies first
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(raw))
	for {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Module != nil && p.Module.Path == modPath {
			own = append(own, p)
		} else {
			exports[p.ImportPath] = p.Export
		}
	}

	fset := token.NewFileSet()
	imp := &moduleImporter{
		own: map[string]*types.Package{},
		ext: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			f, ok := exports[path]
			if !ok || f == "" {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(f)
		}),
	}

	a := newAnalysis()
	for _, p := range own {
		files := make([]*ast.File, 0, len(p.GoFiles))
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, err
		}
		imp.own[p.ImportPath] = pkg
		a.add(pkg, files, info, strings.HasPrefix(p.ImportPath, modPath+"/internal/"))
	}
	return a.unreferenced(modPath + "/internal/"), nil
}

func goCmd(args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	return out, nil
}

// moduleImporter serves the module's packages from the source-checked
// results (so every package sees the same objects) and the rest from
// export data.
type moduleImporter struct {
	own map[string]*types.Package
	ext types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.own[path]; ok {
		return p, nil
	}
	return m.ext.Import(path)
}

type span struct{ pos, end token.Pos }

type analysis struct {
	candidates []*types.Func
	body       map[*types.Func]span // declaration extent, for self-references
	used       map[*types.Func]bool
	ifaces     map[*types.Interface]bool
	seen       map[*types.Package]bool
}

func newAnalysis() *analysis {
	return &analysis{
		body:   map[*types.Func]span{},
		used:   map[*types.Func]bool{},
		ifaces: map[*types.Interface]bool{},
		seen:   map[*types.Package]bool{},
	}
}

// add records one checked package: its candidates when it is under
// internal/, its references, and every interface it can see.
func (a *analysis) add(pkg *types.Package, files []*ast.File, info *types.Info, internal bool) {
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
					a.body[fn] = span{fd.Pos(), fd.End()}
					if internal && fn.Exported() {
						a.candidates = append(a.candidates, fn)
					}
				}
			}
		}
	}
	for id, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if b, ok := a.body[fn]; ok && b.pos <= id.Pos() && id.Pos() < b.end {
			continue // recursion is not a caller
		}
		a.used[fn] = true
	}
	for _, tv := range info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok {
			a.ifaces[it] = true
		}
	}
	a.scopeInterfaces(pkg)
}

// scopeInterfaces adds the named interfaces of pkg and of everything
// it imports, transitively.
func (a *analysis) scopeInterfaces(pkg *types.Package) {
	if a.seen[pkg] {
		return
	}
	a.seen[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				a.ifaces[it] = true
			}
		}
	}
	for _, p := range pkg.Imports() {
		a.scopeInterfaces(p)
	}
}

// unreferenced names every candidate nothing references and no
// interface declares for its receiver, sorted, relative to prefix.
func (a *analysis) unreferenced(prefix string) []string {
	byMethod := map[string][]*types.Interface{}
	for it := range a.ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
		}
	}
	var out []string
	for _, fn := range a.candidates {
		if a.used[fn] {
			continue
		}
		name := strings.TrimPrefix(fn.Pkg().Path(), prefix) + "."
		if recv := fn.Signature().Recv(); recv != nil {
			t := recv.Type()
			ptr, isPtr := t.(*types.Pointer)
			if isPtr {
				t = ptr.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok || satisfies(named, byMethod[fn.Name()]) {
				continue
			}
			if isPtr {
				name += "(*" + named.Obj().Name() + ")."
			} else {
				name += named.Obj().Name() + "."
			}
		}
		out = append(out, name+fn.Name())
	}
	sort.Strings(out)
	return out
}

// satisfies reports whether T or *T implements one of ifaces.
func satisfies(named *types.Named, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		if types.Implements(named, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}
