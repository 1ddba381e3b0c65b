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

// TestDocsNameOnlyExportedOptionsAndHatches fails when README.md or doc.go
// names a With* option or an As* escape hatch that the package does not
// export — one deleted from the code but still shown in the documentation.
func TestDocsNameOnlyExportedOptionsAndHatches(t *testing.T) {
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
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && optionOrHatch.MatchString(fn.Name.Name) {
				exported[fn.Name.Name] = true
			}
		}
	}
	for _, want := range []string{"WithShards", "AsDurable"} {
		if !exported[want] {
			t.Fatalf("found no exported %s", want)
		}
	}
	for _, doc := range []string{"README.md", "doc.go"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range optionOrHatch.FindAllString(string(text), -1) {
			if !exported[name] {
				t.Errorf("%s names %s, which the package does not export", doc, name)
			}
		}
	}
}

// optionOrHatch matches the names of With* options and As* escape hatches.
var optionOrHatch = regexp.MustCompile(`\b(?:With|As)[A-Z]\w*`)
