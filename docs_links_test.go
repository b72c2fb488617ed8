package bloomrf_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// mdLink matches the target of an inline markdown link: ](target).
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// atxHeading matches a markdown "# Heading" line and captures its text.
var atxHeading = regexp.MustCompile(`^#{1,6}\s+(.*?)\s*#*\s*$`)

// slug turns heading text into the anchor GitHub generates for it:
// lower case, every character but letters, digits, '-' and '_' dropped,
// and each space turned into '-'.
func slug(heading string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(r)
		}
	}
	return b.String()
}

// headingAnchors returns the anchors of every heading in a markdown body,
// skipping fenced code blocks, whose "# comment" lines are not headings.
// GitHub's "-1", "-2" suffixes for a repeated heading are not modelled:
// no checked file repeats one.
func headingAnchors(body string) map[string]bool {
	anchors := map[string]bool{}
	inFence := false
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "```") {
			inFence = !inFence
			continue
		}
		if m := atxHeading.FindStringSubmatch(line); m != nil && !inFence {
			anchors[slug(m[1])] = true
		}
	}
	return anchors
}

// TestDocsRelativeLinks walks the repo's markdown (README, ROADMAP,
// CHANGES, docs/) and checks that every relative link target exists and
// that every #fragment, on a link to a markdown file or within the same
// file, names one of that file's headings, so renames and doc moves cannot
// silently strand cross-references. External URLs are skipped. CI runs
// this as the docs link-check step.
func TestDocsRelativeLinks(t *testing.T) {
	files := []string{"README.md", "ROADMAP.md", "CHANGES.md"}
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, docs...)
	if len(docs) == 0 {
		t.Fatal("no docs/*.md found — test running from the wrong directory?")
	}
	anchors := map[string]map[string]bool{} // markdown file → its heading anchors
	anchorsOf := func(path string) map[string]bool {
		if a, ok := anchors[path]; ok {
			return a
		}
		body, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		anchors[path] = headingAnchors(string(body))
		return anchors[path]
	}
	checked, fragments := 0, 0
	for _, file := range files {
		body, err := os.ReadFile(file)
		if err != nil {
			if os.IsNotExist(err) {
				continue // optional top-level files
			}
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			target, fragment, _ := strings.Cut(target, "#")
			resolved := file
			if target != "" {
				resolved = filepath.Join(filepath.Dir(file), filepath.FromSlash(target))
				if _, err := os.Stat(resolved); err != nil {
					t.Errorf("%s: broken relative link %q (resolved %s): %v", file, m[1], resolved, err)
					continue
				}
				checked++
			}
			if fragment == "" || !strings.HasSuffix(resolved, ".md") {
				continue
			}
			if !anchorsOf(resolved)[fragment] {
				t.Errorf("%s: link %q names no heading of %s", file, m[1], resolved)
			}
			fragments++
		}
	}
	if checked == 0 || fragments == 0 {
		t.Fatalf("checked %d file links and %d anchors — the matcher is broken or the docs lost their cross-references", checked, fragments)
	}
	t.Logf("checked %d relative links and %d anchors across %d files", checked, fragments, len(files))
}
