package eefei

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports are the exports under internal/ that only tests use and
// that stay, each for the reason given: a package-level name as pkg.Name, a
// method as pkg.Type.Method. An entry that stops being test-only must leave
// the list.
var testOnlyExports = map[string]string{
	"ml.MaxQuantError":       "the quantization error bound tests in ml and flnet assert against",
	"mat.SubVec":             "named by tests in mat and dataset",
	"mat.NewDenseData":       "builds literal fixtures for tests in mat, ml and dataset",
	"optim.GoldenSection":    "the minimizer core tests run their numeric reference planner on; optim tests it too",
	"core.FitBoundConstants": "the online (A0, A1, A2) fit on ROADMAP.md will call it on the loss history of a live run",

	"core.BoundConstants.Gap":        "the Eq. 10 bound the planner tests check every plan against",
	"core.Problem.KMin":              "the feasibility reference the planner tests check against",
	"core.Problem.SecondDerivativeE": "the Lemma 2 convexity reference in E",
	"core.Problem.SecondDerivativeK": "the Lemma 2 convexity reference in K",
	"ml.Model.Probabilities":         "the per-row reference the batched forward pass and the fuzzers compare against",
	"ml.Model.Predict":               "the per-row reference the batched forward pass and the fuzzers compare against",
	"mat.Dense.Equal":                "a fixture builder used across packages, like mat.NewDenseData",
	"mat.Dense.Fill":                 "a fixture builder used across packages, like mat.NewDenseData",
	"mat.Dense.SetRow":               "a fixture builder used across packages, like mat.NewDenseData",
	"energy.RadioModel.UploadTime":   "ROADMAP item 25 (a plan under a time budget) decides it",
	"energy.RadioModel.DownloadTime": "ROADMAP item 25 (a plan under a time budget) decides it",
}

// TestNoTestOnlyExports: every exported package-level func, type, var and
// const declared under internal/, and every exported method of a type
// declared there, must be used by a non-test Go file under internal/, cmd/ or
// bench/. Uses are resolved by go/types on this platform's build, so a
// selector counts for the method or field it selects and a local name never
// stands for a package-level one; a file built only on other platforms counts
// by name (see program.elsewhere). A `var _ … =` line does not count. Neither does the root package: it
// re-exports only what README and its Examples name, so it cannot keep an
// internal export alive on its own. A method that implements a method of an
// interface the program can see (fmt.Stringer, net.Conn, fl.RoundObserver,
// …) is used through that interface and is exempt. An export only tests use
// is API nobody uses: delete it with its tests, or move it into the _test.go
// beside its users.
func TestNoTestOnlyExports(t *testing.T) {
	orphans, stale := auditExports(t, loadProgram(t, "."), testOnlyExports)
	for _, q := range orphans {
		t.Errorf("%s is exported from internal/ but no non-test file under internal/, cmd/ or bench/ uses it", q)
	}
	for _, q := range stale {
		t.Errorf("%s is allowlisted but is no longer a test-only export: drop it from the list", q)
	}
}

// TestNoTestOnlyExportsSeesMethods plants a module in which two methods only
// a test calls and another is allowlisted although cmd/ calls it; the audit
// must name all three, and exempt the String method fmt.Stringer reaches. One
// of the two is a MarshalBinary: no package this module imports reaches
// encoding, so encoding.BinaryMarshaler exempts nothing. A second module
// reaches encoding only through flag's export data, which names
// TextMarshaler and not BinaryMarshaler: a test-only MarshalText and
// MarshalBinary must get the same verdict there, since encoding's whole
// scope counts once it is reached.
func TestNoTestOnlyExportsSeesMethods(t *testing.T) {
	root := plantModule(t, map[string]string{
		"internal/p/p.go": `package p

type T struct{}

func (T) Used()                          {}
func (T) Planted()                       {}
func (T) String() string                 { return "T" }
func (T) MarshalBinary() ([]byte, error) { return nil, nil }
`,
		"internal/p/p_test.go": `package p

import "testing"

func TestPlanted(t *testing.T) {
	T{}.Planted()
	T{}.MarshalBinary()
}
`,
		"cmd/c/main.go": `package main

import (
	"fmt"

	"eefei/internal/p"
)

func main() {
	var t p.T
	t.Used()
	fmt.Println(t)
}
`,
	})
	orphans, stale := auditExports(t, loadProgram(t, root), map[string]string{"p.T.Used": "planted"})
	if want := []string{"p.T.MarshalBinary", "p.T.Planted"}; !slices.Equal(orphans, want) {
		t.Errorf("test-only exports %q, want %q", orphans, want)
	}
	if !slices.Equal(stale, []string{"p.T.Used"}) {
		t.Errorf("stale allowlist entries %q, want [p.T.Used]", stale)
	}

	root = plantModule(t, map[string]string{
		"internal/q/q.go": `package q

type U struct{}

func New() U                             { return U{} }
func (U) MarshalText() ([]byte, error)   { return nil, nil }
func (U) MarshalBinary() ([]byte, error) { return nil, nil }
`,
		"internal/q/q_test.go": `package q

import "testing"

func TestMarshal(t *testing.T) {
	U{}.MarshalText()
	U{}.MarshalBinary()
}
`,
		"cmd/d/main.go": `package main

import (
	"flag"

	"eefei/internal/q"
)

func main() {
	q.New()
	flag.Parse()
}
`,
	})
	orphans, _ = auditExports(t, loadProgram(t, root), nil)
	if text, binary := slices.Contains(orphans, "q.U.MarshalText"), slices.Contains(orphans, "q.U.MarshalBinary"); text != binary {
		t.Errorf("test-only exports %q: MarshalText reported %v, MarshalBinary %v; encoding is reached, so want the same verdict", orphans, text, binary)
	}
}

// plantModule writes files (slash-separated path → source) under a fresh
// directory and returns it.
func plantModule(t *testing.T, files map[string]string) string {
	t.Helper()
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

// auditExports returns, sorted, the test-only exports under internal/ that
// allow does not list (as pkg.Name or pkg.Type.Method), and the entries of
// allow that are not test-only.
func auditExports(t *testing.T, prog *program, allow map[string]string) (orphans, stale []string) {
	t.Helper()
	used := map[types.Object]bool{}
	for path, pkg := range prog.pkgs {
		if path == "eefei" {
			continue
		}
		for _, f := range pkg.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ValueSpec:
					if len(n.Names) == 1 && n.Names[0].Name == "_" {
						return false // var _ … = (an interface assertion)
					}
				case *ast.Ident:
					if obj := pkg.info.Uses[n]; obj != nil {
						used[obj] = true
					}
				}
				return true
			})
		}
	}

	// Every interface a method could be reached through: those declared in
	// the packages the program imports, and those it writes itself.
	ifaces := map[string][]*types.Interface{} // method name → interfaces
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				name := it.Method(i).Name()
				ifaces[name] = append(ifaces[name], it)
			}
		}
	}
	seen := map[string]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p.Path()] {
			return
		}
		seen[p.Path()] = true
		if _, own := prog.files[p.Path()]; !own {
			// Reached through an importer's export data, p holds only the
			// objects that importer used; its own export data holds all.
			full, err := prog.std.Import(p.Path())
			if err != nil {
				t.Fatalf("load %s: %v", p.Path(), err)
			}
			p = full
		}
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, pkg := range prog.pkgs {
		visit(pkg.types)
		for _, tv := range pkg.info.Types {
			addIface(tv.Type)
		}
	}
	implements := func(named *types.Named, m *types.Func) bool {
		for _, it := range ifaces[m.Name()] {
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
		return false
	}

	testOnly := map[string]bool{}
	for path, pkg := range prog.pkgs {
		if !strings.HasPrefix(path, "eefei/internal/") {
			continue
		}
		scope := pkg.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			q := pkg.types.Name() + "." + name
			if !used[obj] && !prog.elsewhere[path+"."+name] {
				testOnly[q] = true
			}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !prog.elsewhere["."+m.Name()] && !implements(named, m) {
					testOnly[q+"."+m.Name()] = true
				}
			}
		}
	}

	for q := range testOnly {
		if _, ok := allow[q]; !ok {
			orphans = append(orphans, q)
		}
	}
	for q := range allow {
		if !testOnly[q] {
			stale = append(stale, q)
		}
	}
	sort.Strings(orphans)
	sort.Strings(stale)
	return orphans, stale
}

// program is every non-test package of the module and of bench/ (module
// eefei/bench), type-checked for the host's GOOS and GOARCH.
type program struct {
	fset  *token.FileSet
	std   types.Importer
	files map[string][]*ast.File     // import path → parsed non-test files
	pkgs  map[string]*checkedPackage // import path → checked package
	// elsewhere holds what the non-test files built only on other
	// platforms name, untyped: "path.Name" for a qualified identifier or one
	// in the file's own package, ".Name" for any selector. A name they use
	// is not test-only, though this build never sees the use.
	elsewhere map[string]bool
}

type checkedPackage struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loadProgram parses every package of the repository at root, then
// type-checks each one against the standard library's export data, which one
// `go list -export -deps` call finds for every package they reach, directly
// or not (importer.Default runs go list once per package).
func loadProgram(t *testing.T, root string) *program {
	t.Helper()
	prog := &program{fset: token.NewFileSet(), files: map[string][]*ast.File{}, pkgs: map[string]*checkedPackage{}, elsewhere: map[string]bool{}}
	var std []string
	for _, sub := range []string{".", "internal", "cmd", "bench"} {
		top := filepath.Join(root, sub)
		err := filepath.WalkDir(top, func(dir string, d fs.DirEntry, err error) error {
			switch {
			case errors.Is(err, fs.ErrNotExist) && dir == top:
				return nil
			case err != nil:
				return err
			case !d.IsDir():
				return nil
			case d.Name() == "testdata" || sub == "." && dir != top:
				return filepath.SkipDir
			}
			files, other, err := parseDir(prog.fset, dir)
			if err != nil || len(files)+len(other) == 0 {
				return err
			}
			rel, err := filepath.Rel(root, dir)
			if err != nil {
				return err
			}
			for _, f := range other {
				prog.noteElsewhere(importPath(rel), f)
			}
			if len(files) == 0 {
				return nil
			}
			prog.files[importPath(rel)] = files
			for _, f := range files {
				for _, spec := range f.Imports {
					p, _ := strconv.Unquote(spec.Path.Value)
					if p != "eefei" && !strings.HasPrefix(p, "eefei/") && p != "unsafe" {
						std = append(std, p)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	sort.Strings(std)
	out, err := exec.Command(filepath.Join(build.Default.GOROOT, "bin", "go"),
		append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}, slices.Compact(std)...)...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	export := map[string]string{} // import path → export data file
	for _, line := range strings.Fields(string(out)) {
		path, file, _ := strings.Cut(line, "=")
		export[path] = file
	}
	prog.std = importer.ForCompiler(prog.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(export[path])
	})
	for path := range prog.files {
		if _, err := prog.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	return prog
}

// parseDir parses the non-test Go files in dir: those that build on this
// platform, and the other ones.
func parseDir(fset *token.FileSet, dir string) (files, other []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, nil, err
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		if match {
			files = append(files, f)
		} else {
			other = append(other, f)
		}
	}
	return files, other, nil
}

// noteElsewhere records in prog.elsewhere the names f, a file of the package
// at path that this platform does not build, uses. Declared names are not
// uses.
func (prog *program) noteElsewhere(path string, f *ast.File) {
	imports := map[string]string{} // local name → import path
	for _, spec := range f.Imports {
		p, _ := strconv.Unquote(spec.Path.Value)
		name := p[strings.LastIndex(p, "/")+1:]
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imports[name] = p
	}
	declared := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ImportSpec:
			return false
		case *ast.FuncDecl:
			declared[n.Name] = true
		case *ast.TypeSpec:
			declared[n.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				declared[id] = true
			}
		case *ast.SelectorExpr:
			prog.elsewhere["."+n.Sel.Name] = true
			if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
				prog.elsewhere[imports[x.Name]+"."+n.Sel.Name] = true
				return false
			}
		case *ast.Ident:
			if !declared[n] {
				prog.elsewhere[path+"."+n.Name] = true
			}
		}
		return true
	})
}

// importPath maps a directory relative to the repository root to the import
// path of the package in it; bench/ is module eefei/bench.
func importPath(dir string) string {
	if dir = filepath.ToSlash(dir); dir == "." {
		return "eefei"
	}
	return "eefei/" + dir
}

// Import type-checks the repository's package at path, once, and leaves every
// other path to the standard library's export data.
func (prog *program) Import(path string) (*types.Package, error) {
	files, ok := prog.files[path]
	if !ok {
		return prog.std.Import(path)
	}
	if pkg, ok := prog.pkgs[path]; ok {
		return pkg.types, nil
	}
	pkg := &checkedPackage{files: files, info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}}
	conf := types.Config{Importer: prog}
	var err error
	if pkg.types, err = conf.Check(path, prog.fset, files, pkg.info); err != nil {
		return nil, err
	}
	prog.pkgs[path] = pkg
	return pkg.types, nil
}
