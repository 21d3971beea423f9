package multiscalar_test

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

var (
	// fence matches a fenced code block, whose contents are not prose.
	fence = regexp.MustCompile("(?ms)^\\s*```.*?^\\s*```")
	// mdLink captures the target of an inline markdown link.
	mdLink = regexp.MustCompile(`\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)
	// treePath captures a backquoted path into the source tree, up to
	// the first character that cannot be part of one.
	treePath = regexp.MustCompile("`((?:cmd|internal|docs|examples)/[A-Za-z0-9_./*-]*)")
	// lineSuffix is a trailing line (or line range) reference: file.go:58.
	lineSuffix = regexp.MustCompile(`:\d+(-\d+)?$`)
	// codeSpan is an inline code span.
	codeSpan = regexp.MustCompile("`[^`\n]+`")
	// qualified captures pkg.Exported inside a code span, where pkg is
	// not itself a selector's tail (s.cfg.X is not package cfg).
	qualified = regexp.MustCompile(`(?:^|[^\w.])([a-z]\w*)\.([A-Z]\w*)`)
)

// TestDocReferencesResolve holds the prose documents to the tree they
// describe: every relative link resolves from the linking file's
// directory, and every backquoted path into cmd/, internal/, docs/ or
// examples/ names something that exists. A package path may carry a
// trailing identifier (internal/job.Spec), which is stripped before the
// lookup. A backquoted pkg.Exported, where pkg is a package under
// internal/ or the facade (multiscalar), must name something declared in
// that package's files, tests included (a method counts: docs write
// arb.Load for (*arb.ARB).Load); a lower-case name after the dot
// (a ledger row such as core.ms8_kcps) is not an identifier and is
// skipped. A deleted package, command, document or identifier fails here
// until the last mention of it is gone.
func TestDocReferencesResolve(t *testing.T) {
	docs, err := filepath.Glob("docs/*.md")
	if err != nil || len(docs) == 0 {
		t.Fatalf("no docs/*.md: %v", err)
	}
	for _, doc := range append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}, docs...) {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		for _, m := range mdLink.FindAllStringSubmatch(text, -1) {
			target, _, _ := strings.Cut(m[1], "#")
			if target == "" || strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			if _, err := os.Stat(filepath.Join(filepath.Dir(doc), target)); err != nil {
				t.Errorf("%s: link target %s does not resolve", doc, m[1])
			}
		}
		prose := fence.ReplaceAllString(text, "")
		for _, m := range treePath.FindAllStringSubmatch(prose, -1) {
			if !treeHas(m[1]) {
				t.Errorf("%s: `%s` names nothing in the tree", doc, m[1])
			}
		}
		for _, span := range codeSpan.FindAllString(prose, -1) {
			for _, m := range qualified.FindAllStringSubmatch(span, -1) {
				if decls := declared(t, m[1]); decls != nil && !decls[m[2]] {
					t.Errorf("%s: %s: %s.%s is not declared in package %s", doc, span, m[1], m[2], m[1])
				}
			}
		}
	}
}

var packageDecls = map[string]map[string]bool{}

// declared returns the names package pkg's files declare at top level,
// methods and tests included — the facade for "multiscalar", internal/pkg otherwise
// — or nil when pkg is neither.
func declared(t *testing.T, pkg string) map[string]bool {
	if decls, ok := packageDecls[pkg]; ok {
		return decls
	}
	dir := filepath.Join("internal", pkg)
	if pkg == "multiscalar" {
		dir = "."
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	var decls map[string]bool
	if len(files) > 0 {
		decls = map[string]bool{}
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				decls[d.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						decls[spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							decls[n.Name] = true
						}
					}
				}
			}
		}
	}
	packageDecls[pkg] = decls
	return decls
}

// treeHas reports whether ref matches a file or directory, as a glob,
// with a trailing line reference dropped and, failing that, with a
// trailing .Name stripped from its last element (internal/job.Spec is
// the package internal/job).
func treeHas(ref string) bool {
	ref = strings.TrimRight(lineSuffix.ReplaceAllString(ref, ""), ".")
	if m, _ := filepath.Glob(ref); len(m) > 0 {
		return true
	}
	dir, last := filepath.Split(ref)
	if pkg, _, ok := strings.Cut(last, "."); ok {
		m, _ := filepath.Glob(dir + pkg)
		return len(m) > 0
	}
	return false
}
