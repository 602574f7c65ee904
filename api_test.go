package rankjoin

import (
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const apiGoldenPath = "testdata/api.golden"

// renderAPI renders the exported API of the package in dir, one line
// per name, without comments or bodies, in go/doc order: constants,
// variables, functions, then each type with its constants, variables,
// constructors and methods. A struct type lists its exported fields,
// one indented line each. Source layout (comments, blank lines, field
// grouping) never shows.
func renderAPI(dir string) (string, error) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return "", err
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, "repro")
	if err != nil {
		return "", err
	}
	var b strings.Builder
	decl := func(d *ast.GenDecl) {
		for _, spec := range d.Specs {
			switch spec := spec.(type) {
			case *ast.ValueSpec:
				for i, name := range spec.Names {
					fmt.Fprintf(&b, "%s %s", d.Tok, name.Name)
					if spec.Type != nil {
						fmt.Fprintf(&b, " %s", types.ExprString(spec.Type))
					}
					if i < len(spec.Values) {
						fmt.Fprintf(&b, " = %s", types.ExprString(spec.Values[i]))
					}
					b.WriteString("\n")
				}
			case *ast.TypeSpec:
				fmt.Fprintf(&b, "type %s ", spec.Name.Name)
				if spec.Assign.IsValid() {
					b.WriteString("= ")
				}
				st, ok := spec.Type.(*ast.StructType)
				if !ok {
					fmt.Fprintf(&b, "%s\n", types.ExprString(spec.Type))
					continue
				}
				b.WriteString("struct\n")
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						fmt.Fprintf(&b, "\t%s %s", name.Name, types.ExprString(f.Type))
						if f.Tag != nil {
							fmt.Fprintf(&b, " %s", f.Tag.Value)
						}
						b.WriteString("\n")
					}
					if f.Names == nil {
						fmt.Fprintf(&b, "\t%s\n", types.ExprString(f.Type))
					}
				}
				if st.Incomplete {
					b.WriteString("\t// unexported fields\n")
				}
			}
		}
	}
	values := func(vs []*doc.Value) {
		for _, v := range vs {
			decl(v.Decl)
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			f.Decl.Body = nil
			if err == nil {
				err = printer.Fprint(&b, fset, f.Decl)
			}
			b.WriteString("\n")
		}
	}
	values(pkg.Consts)
	values(pkg.Vars)
	funcs(pkg.Funcs)
	for _, t := range pkg.Types {
		decl(t.Decl)
		values(t.Consts)
		values(t.Vars)
		funcs(t.Funcs)
		funcs(t.Methods)
	}
	return b.String(), err
}

// TestAPIGolden pins the root package's exported API: any change to an
// exported name, signature or field shows as a diff of
// testdata/api.golden. To regenerate, delete the file and run the test
// twice (the first run writes it and fails), then review the diff.
func TestAPIGolden(t *testing.T) {
	got, err := renderAPI(".")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, apiGoldenPath, got)
}

// checkGolden compares got with the golden file at path, writing the
// file and failing when it is absent (the regenerate-by-deleting
// convention), and reports up to 20 differing lines otherwise.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; review it and re-run", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	shown := 0
	for i := 0; i < max(len(gotLines), len(wantLines)) && shown < 20; i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s:%d\n got %s\nwant %s", path, i+1, g, w)
			shown++
		}
	}
}
