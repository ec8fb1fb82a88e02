package sparsehamming

// TestExportedDocComments is the repository's revive-style comment
// check: every exported type, function, method, constant, and
// variable of the documented packages must carry a doc comment.
// TestDocReferencesExist checks that every markdown file a comment or
// document names exists. Both run as plain tests so CI enforces them
// without external linters.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docCheckedPackages lists the directories whose exported APIs must
// be fully documented.
var docCheckedPackages = []string{
	"internal/analytic",
	"internal/dse",
	"internal/sim",
	"internal/exp",
	"internal/noc",
	"internal/obs",
	"internal/perf",
	"internal/spec",
	"internal/topo",
	"internal/trace",
	"internal/route",
	"internal/serve",
	"internal/report",
}

func TestExportedDocComments(t *testing.T) {
	for _, dir := range docCheckedPackages {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for path, file := range pkg.Files {
				checkFileDocs(t, fset, path, file)
			}
		}
	}
}

func checkFileDocs(t *testing.T, fset *token.FileSet, path string, file *ast.File) {
	t.Helper()
	report := func(pos token.Pos, what, name string) {
		t.Errorf("%s: exported %s %s has no doc comment", fset.Position(pos), what, name)
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil {
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				report(d.Pos(), kind, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
						report(sp.Pos(), "type", sp.Name.Name)
					}
				case *ast.ValueSpec:
					// A doc comment on the const/var block covers
					// every name in it (the idiomatic enum style).
					if d.Doc != nil || sp.Doc != nil || sp.Comment != nil {
						continue
					}
					for _, name := range sp.Names {
						if name.IsExported() {
							report(name.Pos(), "const/var", name.Name)
						}
					}
				}
			}
		}
	}
}

// mdRef matches a relative reference to a markdown file: path
// segments ending in a .md file name, not preceded by a path or URL
// character (so links to other sites never match).
var mdRef = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./:-])((?:\.\./|[A-Za-z0-9_-]+/)*[A-Za-z0-9_-]+\.md)\b`)

// docRefChecked lists the top-level markdown documents whose
// references are checked. The other top-level documents are working
// notes (change log, roadmap, planning notes, quotes from other
// repositories) that name documents which existed once, are planned,
// or belong elsewhere. Go files and markdown below the root are always
// checked.
var docRefChecked = map[string]bool{
	"README.md": true,
	"PAPER.md":  true,
}

// TestDocReferencesExist fails on any reference, in a Go file or a
// markdown document of the repository, to a .md file that does not
// exist. A reference resolves against the referring file's directory
// or the repository root.
func TestDocReferencesExist(t *testing.T) {
	checked := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		isMD := strings.HasSuffix(path, ".md")
		if !(strings.HasSuffix(path, ".go") || isMD) || (isMD && !strings.Contains(path, "/") && !docRefChecked[path]) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range mdRef.FindAllStringSubmatch(line, -1) {
				checked++
				ref := m[1]
				if !fileExists(filepath.Join(filepath.Dir(path), ref)) && !fileExists(ref) {
					t.Errorf("%s:%d: reference to missing document %s", path, i+1, ref)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no markdown references found; the scan is broken")
	}
}

// fileExists reports whether path names an existing regular file.
func fileExists(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.Mode().IsRegular()
}
