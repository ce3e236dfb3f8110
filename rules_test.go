package eefei

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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
		for _, hit := range grep(t, retired, goFiles(t, ".", true)) {
			t.Errorf("%s: FedProx or epoch-interval decay is back", hit)
		}
	})

	t.Run("gofmt", func(t *testing.T) {
		for _, p := range goFiles(t, ".", true) {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if out, err := format.Source(src); err != nil {
				t.Errorf("%s: %v", p, err)
			} else if !bytes.Equal(out, src) {
				t.Errorf("%s: gofmt needed", p)
			}
		}
	})

	// internal/par is the only worker pool (DESIGN.md §7 "Round core"): no
	// other internal package hand-rolls one. Every experiment cell trains
	// through internal/experiments' inOrder: its par.Do call is the
	// package's only one, so no second cell runner grows back.
	t.Run("one pool", func(t *testing.T) {
		pool := regexp.MustCompile(`cursor\.Add\(1\)|sync\.WaitGroup`)
		for _, hit := range grep(t, pool, goFiles(t, "internal", false)) {
			if !strings.HasPrefix(hit, filepath.Join("internal", "par")+string(filepath.Separator)) {
				t.Errorf("%s: hand-rolled worker pool: use par.Do", hit)
			}
		}
		fset := token.NewFileSet()
		var calls []string // the func around each par.Do call
		for _, p := range goFiles(t, "internal/experiments", false) {
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				ast.Inspect(decl, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Do" {
						if x, ok := sel.X.(*ast.Ident); ok && x.Name == "par" {
							name := "package level"
							if fn, ok := decl.(*ast.FuncDecl); ok {
								name = fn.Name.Name
							}
							calls = append(calls, name)
						}
					}
					return true
				})
			}
		}
		if !slices.Equal(calls, []string{"inOrder"}) {
			t.Errorf("internal/experiments calls par.Do in %q; want once, inside inOrder", calls)
		}
	})

	// Both ends of a link form the lossless wire codec's prediction from
	// models they hold, and must arrive at the same bits on any pair of
	// architectures. internal/ml/delta.go's predict does, because it is
	// wrapping integer + and − on bit patterns. A float64 rewrite would
	// round; 2*a − c would round differently; and Go fuses x*y + z into one
	// rounding (math.FMA) on arm64, ppc64 and s390x but not on amd64 — a
	// prediction off by one bit on one end silently desynchronises the pair.
	// So: no multiplication inside predict, no fused multiply-add anywhere in
	// the file.
	t.Run("one predictor", func(t *testing.T) {
		const file = "internal/ml/delta.go"
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == "predict" {
				found = true
				ast.Inspect(fn, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.BinaryExpr:
						if n.Op == token.MUL {
							t.Errorf("%s: predict multiplies", fset.Position(n.OpPos))
						}
					case *ast.AssignStmt:
						if n.Tok == token.MUL_ASSIGN {
							t.Errorf("%s: predict multiplies", fset.Position(n.TokPos))
						}
					}
					return true
				})
			}
		}
		if !found {
			t.Errorf("%s: func predict not found", file)
		}
		for _, hit := range grep(t, regexp.MustCompile(`math\.FMA|FMA\(`), []string{file}) {
			t.Errorf("%s: fused multiply-add in the wire codec", hit)
		}
	})

	// The vector kernels are bit-identical to the portable ones only because
	// each lane multiplies, rounds, then adds and rounds again, as Go does on
	// amd64. A fused multiply-add rounds once, so one VFMADD in internal/mat's
	// assembly moves weights, digests and every bit-identity reference.
	t.Run("no fused multiply-add in kernels", func(t *testing.T) {
		fma := regexp.MustCompile(`VFMADD|VFMSUB|VFNMADD|VFNMSUB`)
		for _, hit := range grep(t, fma, asmFiles(t, "internal/mat", "internal/ml")) {
			t.Errorf("%s: fused multiply-add in a kernel", hit)
		}
	})

	// internal/ml's vector delta coder is bit-identical to the portable one
	// by construction: it is integer arithmetic on bit patterns (wrapping adds
	// and subtracts, shifts, compares, byte shuffles), with no rounding to
	// agree on. One floating-point add, subtract, multiply, divide or square
	// root there would round, and break that across the two ends of a link.
	t.Run("integer-only codec", func(t *testing.T) {
		float := regexp.MustCompile(`V?(ADD|SUB|MUL|DIV|SQRT)(P|S)D|VFM`)
		for _, hit := range grep(t, float, asmFiles(t, "internal/ml")) {
			t.Errorf("%s: floating-point arithmetic in the integer-only codec", hit)
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

// goFiles lists the .go files under dir, tests included when withTests.
func goFiles(t *testing.T, dir string, withTests bool) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == ".git":
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(p, ".go") && (withTests || !strings.HasSuffix(p, "_test.go")):
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// asmFiles lists the assembly files of the package directories dirs.
func asmFiles(t *testing.T, dirs ...string) []string {
	t.Helper()
	var files []string
	for _, dir := range dirs {
		matches, err := filepath.Glob(filepath.Join(dir, "*.s"))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	return files
}

// grep returns "file:line: text" for every line of files that re matches.
func grep(t *testing.T, re *regexp.Regexp, files []string) []string {
	t.Helper()
	var hits []string
	for _, p := range files {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if re.MatchString(line) {
				hits = append(hits, fmt.Sprintf("%s:%d: %s", p, i+1, strings.TrimSpace(line)))
			}
		}
	}
	return hits
}
