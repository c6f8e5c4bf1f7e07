package hypertree

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The workflow's named steps pick their tests with -run patterns, and go
// test passes when an alternative matches nothing — so a renamed test would
// silently drop out of its named gate. Every |-alternative of every
// -run '…' in .github/workflows/ci.yml must therefore be the prefix of some
// Test function of this module (the exact name when it ends in $).
func TestCIRunPatternsNameExistingTests(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	testFunc := regexp.MustCompile(`(?m)^func (Test\w*)\(`)
	var names []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." {
			// hidden directories and nested modules (bench/) are not this module
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	runs := regexp.MustCompile(`-run '([^']*)'`).FindAllSubmatch(ci, -1)
	if len(runs) == 0 {
		t.Fatal("no -run '…' pattern in the workflow")
	}
	for _, run := range runs {
		for _, alt := range strings.Split(string(run[1]), "|") {
			name, exact := strings.CutSuffix(strings.TrimPrefix(alt, "^"), "$")
			if !slices.ContainsFunc(names, func(n string) bool {
				return n == name || !exact && strings.HasPrefix(n, name)
			}) {
				t.Errorf("ci.yml runs -run alternative %q, which names no Test function of the module", alt)
			}
		}
	}
}
