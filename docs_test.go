package multiscalar_test

import (
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
)

// TestDocReferencesResolve holds the prose documents to the tree they
// describe: every relative link resolves from the linking file's
// directory, and every backquoted path into cmd/, internal/, docs/ or
// examples/ names something that exists. A package path may carry a
// trailing identifier (internal/job.Spec), which is stripped before the
// lookup. A deleted package, command or document fails here until the
// last mention of it is gone.
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
		for _, m := range treePath.FindAllStringSubmatch(fence.ReplaceAllString(text, ""), -1) {
			if !treeHas(m[1]) {
				t.Errorf("%s: `%s` names nothing in the tree", doc, m[1])
			}
		}
	}
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
