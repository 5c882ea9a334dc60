// Command docslint enforces the repository's documentation contract: every
// exported identifier in every non-test Go file must carry a doc comment,
// and every package must have a package comment. TestModuleDocumented runs
// it over the module in go test ./... (a go-vet-style check, but stricter
// than go vet's none and less configurable than a general-purpose linter —
// exactly the house rule and nothing else).
//
// Usage:
//
//	go run ./internal/tools/docslint [dir ...]
//
// With no arguments the current directory is walked. Findings are printed
// as file:line: message, and the exit status is 1 if there are any.
//
// Rules:
//
//   - Every package (including main packages) has a package comment in at
//     least one of its files.
//   - Exported top-level functions, and exported methods on exported
//     types, have doc comments.
//   - Exported types, constants and variables have doc comments: on the
//     spec, on the enclosing grouped declaration, or as a trailing line
//     comment (the const-block idiom).
//
// _test.go files, testdata, vendored and generated files are skipped.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	findings, err := lintTree(os.Args[1:]...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docslint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "docslint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// lintTree walks the roots (the current directory if there are none) and
// returns the findings, sorted.
func lintTree(roots ...string) ([]string, error) {
	if len(roots) == 0 {
		roots = []string{"."}
	}
	var files []string
	for _, root := range roots {
		// Accept ./... spelling for familiarity; the walk recurses anyway.
		root = strings.TrimSuffix(root, "...")
		root = strings.TrimSuffix(root, string(filepath.Separator))
		if root == "" {
			root = "."
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(files)

	fset := token.NewFileSet()
	var findings []string
	// pkgComment tracks, per package directory, whether any file carries a
	// package comment.
	pkgComment := map[string]bool{}
	pkgFirstFile := map[string]string{}

	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if isGenerated(f) {
			continue
		}
		dir := filepath.Dir(path)
		if _, seen := pkgFirstFile[dir]; !seen {
			pkgFirstFile[dir] = path
		}
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			pkgComment[dir] = true
		}
		findings = append(findings, lintFile(fset, f)...)
	}

	for dir, first := range pkgFirstFile {
		if !pkgComment[dir] {
			findings = append(findings, fmt.Sprintf("%s: package in %s has no package comment", first, dir))
		}
	}
	sort.Strings(findings)
	return findings, nil
}

// isGenerated reports whether the file carries the standard generated-code
// marker.
func isGenerated(f *ast.File) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "// Code generated ") && strings.HasSuffix(c.Text, " DO NOT EDIT.") {
				return true
			}
		}
	}
	return false
}

// lintFile checks one parsed file's top-level declarations.
func lintFile(fset *token.FileSet, f *ast.File) []string {
	// exportedTypes collects the file's exported type names so methods on
	// unexported types (interface plumbing) are not flagged.
	exportedTypes := map[string]bool{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() {
				exportedTypes[ts.Name.Name] = true
			}
		}
	}

	var out []string
	report := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, fmt.Sprintf(format, args...)))
	}

	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || hasDoc(d.Doc) {
				continue
			}
			if recv := receiverType(d); recv != "" {
				if exportedTypes[recv] {
					report(d.Pos(), "exported method %s.%s has no doc comment", recv, d.Name.Name)
				}
				continue
			}
			report(d.Pos(), "exported function %s has no doc comment", d.Name.Name)
		case *ast.GenDecl:
			if d.Tok == token.IMPORT || hasDoc(d.Doc) {
				continue
			}
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() && !hasDoc(sp.Doc) && !hasDoc(sp.Comment) {
						report(sp.Pos(), "exported type %s has no doc comment", sp.Name.Name)
					}
				case *ast.ValueSpec:
					if hasDoc(sp.Doc) || hasDoc(sp.Comment) {
						continue
					}
					for _, name := range sp.Names {
						if name.IsExported() {
							report(sp.Pos(), "exported %s %s has no doc comment", strings.ToLower(d.Tok.String()), name.Name)
						}
					}
				}
			}
		}
	}
	return out
}

// hasDoc reports whether a comment group holds actual text.
func hasDoc(cg *ast.CommentGroup) bool {
	return cg != nil && strings.TrimSpace(cg.Text()) != ""
}

// receiverType returns the bare receiver type name of a method, or "" for
// plain functions.
func receiverType(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}
