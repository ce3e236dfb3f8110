package eefei

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports are the package-level exports under internal/ that only
// tests name and that stay, each for the reason given. An entry that stops
// being a test-only export must leave the list.
var testOnlyExports = map[string]string{
	"ml.MaxQuantError":       "the quantization error bound tests in ml and flnet assert against",
	"mat.SubVec":             "named by tests in mat and dataset",
	"mat.NewDenseData":       "builds literal fixtures for tests in mat, ml and dataset",
	"optim.GoldenSection":    "the minimizer core tests run their numeric reference planner on; optim tests it too",
	"core.FitBoundConstants": "the online (A0, A1, A2) fit on ROADMAP.md will call it on the loss history of a live run",
}

// TestNoTestOnlyExports: every package-level exported func, type, var and
// const declared under internal/ must be named by a non-test Go file under
// internal/, cmd/ or bench/, as pkg.Name through that file's imports or as
// the bare name inside its own package. Its declaration, a selector's field
// name, a struct literal's key and a `var _ … =` line do not count. Neither
// does the root package: it re-exports only what README and its Examples
// name, so it cannot keep an internal export alive on its own. An export
// only tests name is API nobody uses: delete it with its tests, or move it
// into the _test.go beside its users.
func TestNoTestOnlyExports(t *testing.T) {
	type file struct {
		dir string // slash path of the package directory
		ast *ast.File
	}
	var files []file
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "bench"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == "testdata":
				return filepath.SkipDir
			case d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go"):
				return nil
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err == nil {
				files = append(files, file{filepath.ToSlash(filepath.Dir(p)), f})
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	declared := map[string]string{} // "dir.Name" → "pkg.Name"
	pkgName := map[string]string{}  // dir → package name
	for _, f := range files {
		if !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		pkgName[f.dir] = f.ast.Name.Name
		declare := func(id *ast.Ident) {
			if id.IsExported() {
				declared[f.dir+"."+id.Name] = f.ast.Name.Name + "." + id.Name
			}
		}
		for _, decl := range f.ast.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declare(d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declare(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(id)
						}
					}
				}
			}
		}
	}

	named := map[string]bool{} // "dir.Name"
	for _, f := range files {
		imports := map[string]string{} // local name → dir
		for _, spec := range f.ast.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			dir, ok := strings.CutPrefix(p, "eefei/")
			if !ok {
				continue
			}
			name := pkgName[dir]
			if name == "" {
				name = path.Base(dir)
			}
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = dir
		}
		_, own := pkgName[f.dir]
		skip := map[*ast.Ident]bool{} // identifiers that declare or name a field
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ImportSpec:
				return false
			case *ast.FuncDecl:
				skip[n.Name] = true
			case *ast.TypeSpec:
				skip[n.Name] = true
			case *ast.ValueSpec:
				if len(n.Names) == 1 && n.Names[0].Name == "_" {
					return false // var _ … = (an interface assertion)
				}
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					for _, e := range n.Lhs {
						if id, ok := e.(*ast.Ident); ok {
							skip[id] = true
						}
					}
				}
			case *ast.CompositeLit:
				switch n.Type.(type) {
				case *ast.MapType, *ast.ArrayType: // keys are values
				default:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								skip[id] = true
							}
						}
					}
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						named[dir+"."+n.Sel.Name] = true
						return false
					}
				}
				skip[n.Sel] = true
			case *ast.Ident:
				if own && !skip[n] {
					named[f.dir+"."+n.Name] = true
				}
			}
			return true
		})
	}

	testOnly := map[string]bool{}
	for key, q := range declared {
		if !named[key] {
			testOnly[q] = true
		}
	}
	var orphans, stale []string
	for q := range testOnly {
		if _, ok := testOnlyExports[q]; !ok {
			orphans = append(orphans, q)
		}
	}
	for q := range testOnlyExports {
		if !testOnly[q] {
			stale = append(stale, q)
		}
	}
	sort.Strings(orphans)
	sort.Strings(stale)
	for _, q := range orphans {
		t.Errorf("%s is exported from internal/ but no non-test file under internal/, cmd/ or bench/ names it", q)
	}
	for _, q := range stale {
		t.Errorf("%s is allowlisted but is no longer a test-only export: drop it from the list", q)
	}
}
