package main

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// lint parses src and returns the findings of lintFile.
func lint(t *testing.T, src string) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	if isGenerated(f) {
		return nil
	}
	return lintFile(fset, f)
}

func TestLintFlagsUndocumentedExports(t *testing.T) {
	findings := lint(t, `package p

func Exported() {}

type Foo struct{}

func (f *Foo) Bar() {}

const C = 1

var V = 2
`)
	want := []string{"function Exported", "type Foo", "method Foo.Bar", "const C", "var V"}
	if len(findings) != len(want) {
		t.Fatalf("findings = %v, want %d", findings, len(want))
	}
	for _, frag := range want {
		found := false
		for _, f := range findings {
			if strings.Contains(f, frag) {
				found = true
			}
		}
		if !found {
			t.Errorf("no finding mentions %q in %v", frag, findings)
		}
	}
}

func TestLintAcceptsDocumentedAndUnexported(t *testing.T) {
	findings := lint(t, `package p

// Exported is documented.
func Exported() {}

// Grouped declarations may be documented as a block.
const (
	A = 1
	B = 2
)

// Or per spec.
var (
	// V is documented.
	V = 1
	w = 2
)

const Inline = 3 // Inline carries a trailing comment.

type unexp struct{}

// Exported methods on unexported types are interface plumbing, not API.
func (u *unexp) Exported2() {}

func helper() {}
`)
	if len(findings) != 0 {
		t.Fatalf("unexpected findings: %v", findings)
	}
}

func TestLintSkipsGeneratedFiles(t *testing.T) {
	findings := lint(t, `// Code generated by stringer. DO NOT EDIT.

package p

func Exported() {}
`)
	if len(findings) != 0 {
		t.Fatalf("generated file should be skipped: %v", findings)
	}
}

func TestReceiverTypeUnwrapsPointersAndGenerics(t *testing.T) {
	findings := lint(t, `package p

// Box is documented.
type Box[T any] struct{}

func (b *Box[T]) Get() {}
`)
	if len(findings) != 1 || !strings.Contains(findings[0], "Box.Get") {
		t.Fatalf("findings = %v, want one about Box.Get", findings)
	}
}

// TestModuleDocumented lints the module this tool lives in: every package
// has a package comment and every exported identifier a doc comment.
func TestModuleDocumented(t *testing.T) {
	findings, err := lintTree("../../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}
