package eefei

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestHouseRules checks the repository's design rules on its source.
func TestHouseRules(t *testing.T) {
	// The paper selects K_t uniformly and averages per Eq. (2); fl.Engine
	// hard-codes both, as the networked coordinator does, and trains plain
	// FedAvg locally.
	t.Run("no plug-ins", func(t *testing.T) {
		plugin := regexp.MustCompile(`(Selector|Aggregator)$`)
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, "internal/fl", nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					var names []*ast.Ident
					switch n := n.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{n.Name}
					case *ast.Field: // an interface or struct declared as a field
						switch n.Type.(type) {
						case *ast.InterfaceType, *ast.StructType:
							names = n.Names
						}
					}
					for _, name := range names {
						if plugin.MatchString(name.Name) {
							t.Errorf("%s: %s: selection and aggregation are not plug-ins", fset.Position(name.Pos()), name.Name)
						}
					}
					return true
				})
			}
		}

		// Grouped so that this line does not match itself.
		retired := regexp.MustCompile(`Proximal(Mu)|SetProximal(Ref)|apply(Proximal)|Decay(Every)`)
		err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == ".git":
				return filepath.SkipDir
			case d.IsDir() || !strings.HasSuffix(p, ".go"):
				return nil
			}
			src, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			for i, line := range strings.Split(string(src), "\n") {
				if retired.MatchString(line) {
					t.Errorf("%s:%d: FedProx or epoch-interval decay is back", p, i+1)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	// Every exported name of the root package (a func, a type, or a var or
	// const) must be named by README.md or by the code of example_test.go,
	// whose Examples go test runs and checks. A type alias may instead be
	// named by the signature of a root func, which needs it.
	t.Run("one public surface", func(t *testing.T) {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, ".", nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		readme, err := os.ReadFile("README.md")
		if err != nil {
			t.Fatal(err)
		}
		named := map[string]bool{}
		for _, word := range regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`).FindAllString(string(readme), -1) {
			named[word] = true
		}
		nameIdents := func(n ast.Node) {
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					named[id.Name] = true
				}
				return true
			})
		}
		var exported []*ast.Ident
		for _, f := range pkgs["eefei_test"].Files {
			if filepath.Base(fset.File(f.Pos()).Name()) == "example_test.go" {
				nameIdents(f)
			}
		}
		for name, f := range pkgs["eefei"].Files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						exported = append(exported, d.Name)
					} else {
						nameIdents(d.Recv)
					}
					nameIdents(d.Type)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							exported = append(exported, s.Name)
						case *ast.ValueSpec:
							exported = append(exported, s.Names...)
						}
					}
				}
			}
		}
		var unnamed []string
		for _, id := range exported {
			if id.IsExported() && !named[id.Name] {
				unnamed = append(unnamed, id.Name)
			}
		}
		sort.Strings(unnamed)
		for _, name := range unnamed {
			t.Errorf("%s is exported from the root package but named by neither README.md nor an Example", name)
		}
	})
}
