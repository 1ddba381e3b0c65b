package vmshortcut

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameOnlyExportedOptions fails when README.md or doc.go names a
// With* option that the package does not export — an option deleted from
// the code but still shown in the documentation.
func TestDocsNameOnlyExportedOptions(t *testing.T) {
	sources, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range sources {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "With") {
				exported[fn.Name.Name] = true
			}
		}
	}
	if len(exported) == 0 {
		t.Fatal("found no exported With* options")
	}
	option := regexp.MustCompile(`\bWith[A-Z]\w*`)
	for _, doc := range []string{"README.md", "doc.go"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range option.FindAllString(string(text), -1) {
			if !exported[name] {
				t.Errorf("%s names %s, which the package does not export", doc, name)
			}
		}
	}
}
