package multiscalar_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestNothingExportedWithoutCaller type-checks every non-test file of the
// repository, the benchmark module included, and fails on an exported
// func, method, type, var or const under internal/ that no code
// references outside its own declaration. Tests are not callers: a name
// only tests reach belongs in those tests. Exempt, with no name list: a
// method that satisfies a method of an interface (one of the module's
// own, error, fmt.Stringer or encoding.TextMarshaler), a member of a
// const block (the block is one table), and struct fields.
func TestNothingExportedWithoutCaller(t *testing.T) {
	t.Parallel()
	unused, err := unreferencedExports(repoTree(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range unused {
		t.Errorf("%s has no caller outside its declaration; delete it, unexport it, or move it into its package's tests", u)
	}
}

// TestUnreferencedExportsNamesThem plants a module whose internal
// package exports a function and a method that nothing calls, beside
// names that are used, satisfy an interface or sit in a const block,
// and holds the scan to naming exactly the two planted names.
func TestUnreferencedExportsNamesThem(t *testing.T) {
	root := plant(t, map[string]string{
		"go.mod": "module planted\n\ngo 1.22\n",
		"main.go": `package main

import "planted/internal/p"

func main() { p.Used(p.T{}.String()) }
`,
		"internal/p/p.go": `package p

type T struct{ Field int }

func (T) String() string { return "t" }

func (T) Lonely() {}

func Used(string) {}

func Unused() {}

const (
	A = iota
	B
)
`,
	})
	tr, err := loadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	unused, err := unreferencedExports(tr)
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(root, "internal/p/p.go")
	want := []string{file + ":7: p.T.Lonely", file + ":11: p.Unused"}
	if strings.Join(unused, "\n") != strings.Join(want, "\n") {
		t.Fatalf("scan found\n%s\nwant\n%s", strings.Join(unused, "\n"), strings.Join(want, "\n"))
	}
}

// plant writes files (slash-separated path -> contents) into a fresh
// temporary directory and returns it.
func plant(t *testing.T, files map[string]string) string {
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// tree is every non-test package under a root (each directory holding a
// go.mod starts a module), parsed and type-checked against the standard
// library's export data, with every definition, use and expression type
// recorded in one shared Info.
type tree struct {
	root  string
	fset  *token.FileSet
	files map[string][]*ast.File // import path -> non-test files
	paths []string               // import paths, sorted
	pkgs  map[string]*types.Package
	info  *types.Info
	imp   *treeImporter
}

var (
	repoOnce sync.Once
	repo     *tree
	repoErr  error
)

// repoTree is the repository's tree, loaded once per test binary: the
// export scan and the design rules read the same type-checked packages.
func repoTree(t *testing.T) *tree {
	repoOnce.Do(func() { repo, repoErr = loadTree(".") })
	if repoErr != nil {
		t.Fatal(repoErr)
	}
	return repo
}

func loadTree(root string) (*tree, error) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		ipath, err := importPath(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files[ipath] = append(files[ipath], f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	tr := &tree{root: root, fset: fset, files: files, pkgs: map[string]*types.Package{}, info: info}
	tr.imp = &treeImporter{std: importer.ForCompiler(fset, "gc", nil), files: files, fset: fset, info: info, done: tr.pkgs}
	for p := range files {
		tr.paths = append(tr.paths, p)
	}
	sort.Strings(tr.paths)
	for _, p := range tr.paths {
		if _, err := tr.imp.Import(p); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// unreferencedExports returns "file:line: pkg.Name" for each exported
// name of tr under an internal/ directory that nothing references
// outside its own declaration, in file order.
func unreferencedExports(tr *tree) ([]string, error) {
	ifaces, err := tr.imp.interfaces()
	if err != nil {
		return nil, err
	}
	// declared maps each candidate to the extent of its declaration; a
	// reference inside that extent (recursion, a method naming its own
	// receiver type in a composite literal) is not a caller.
	type extent struct{ pos, end token.Pos }
	declared := map[types.Object]extent{}
	for _, p := range tr.paths {
		if !strings.Contains("/"+p+"/", "/internal/") {
			continue
		}
		for _, f := range tr.files[p] {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, _ := tr.info.Defs[d.Name].(*types.Func)
					if fn == nil || !fn.Exported() || satisfiesInterface(fn, ifaces) {
						continue
					}
					declared[fn] = extent{d.Pos(), d.End()}
				case *ast.GenDecl:
					if d.Tok == token.CONST && len(d.Specs) > 1 {
						continue
					}
					for _, spec := range d.Specs {
						var names []*ast.Ident
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, n := range names {
							if obj := tr.info.Defs[n]; obj != nil && obj.Exported() {
								declared[obj] = extent{spec.Pos(), spec.End()}
							}
						}
					}
				}
			}
		}
	}
	for id, obj := range tr.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if e, ok := declared[obj]; ok && (id.Pos() < e.pos || id.Pos() >= e.end) {
			delete(declared, obj)
		}
	}

	type finding struct {
		pos  token.Position
		name string
	}
	var found []finding
	for obj := range declared {
		name := obj.Name()
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				name = receiverName(recv.Type()) + "." + name
			}
		}
		found = append(found, finding{tr.fset.Position(obj.Pos()), obj.Pkg().Name() + "." + name})
	}
	sort.Slice(found, func(i, j int) bool {
		a, b := found[i].pos, found[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	out := make([]string, len(found))
	for i, f := range found {
		out[i] = fmt.Sprintf("%s:%d: %s", f.pos.Filename, f.pos.Line, f.name)
	}
	return out, nil
}

// importPath names the package of the Go file at path: the module path
// of the nearest enclosing go.mod joined with the directory below it.
func importPath(path string) (string, error) {
	dir := filepath.Dir(path)
	for mod := dir; ; mod = filepath.Dir(mod) {
		if data, err := os.ReadFile(filepath.Join(mod, "go.mod")); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if m, ok := strings.CutPrefix(line, "module "); ok {
					rel, err := filepath.Rel(mod, dir)
					if err != nil {
						return "", err
					}
					return strings.TrimSuffix(strings.TrimSpace(m)+"/"+filepath.ToSlash(rel), "/."), nil
				}
			}
			return "", fmt.Errorf("%s: no module line", filepath.Join(mod, "go.mod"))
		}
		if filepath.Dir(mod) == mod {
			return "", fmt.Errorf("%s: no enclosing go.mod", path)
		}
	}
}

// treeImporter type-checks the tree's packages from source on first
// import, recording every definition and use in one shared Info, and
// takes the standard library from its export data.
type treeImporter struct {
	std   types.Importer
	files map[string][]*ast.File
	fset  *token.FileSet
	info  *types.Info
	done  map[string]*types.Package
}

func (imp *treeImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := imp.done[path]; ok {
		return pkg, nil
	}
	files, ok := imp.files[path]
	if !ok {
		return imp.std.Import(path)
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, imp.fset, files, imp.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	imp.done[path] = pkg
	return pkg, nil
}

// interfaces lists the method-set interfaces a method may satisfy: every
// non-generic interface type the tree declares, error, fmt.Stringer and
// encoding.TextMarshaler.
func (imp *treeImporter) interfaces() ([]*types.Interface, error) {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, q := range [][2]string{{"fmt", "Stringer"}, {"encoding", "TextMarshaler"}} {
		pkg, err := imp.std.Import(q[0])
		if err != nil {
			return nil, err
		}
		ifaces = append(ifaces, pkg.Scope().Lookup(q[1]).Type().Underlying().(*types.Interface))
	}
	for _, obj := range imp.info.Defs {
		if tn, ok := obj.(*types.TypeName); ok && tn.Pkg() != nil {
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
				if it, ok := named.Underlying().(*types.Interface); ok && it.IsMethodSet() {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	return ifaces, nil
}

// satisfiesInterface reports whether method fn is one of the methods by
// which its receiver type (or a pointer to it) implements an interface.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}

// receiverName is a method receiver's type name, without pointer or
// type arguments.
func receiverName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}
