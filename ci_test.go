package rankjoin_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ciRunFlag finds the -run and -skip patterns on a command line of the
// CI workflow, quoted or bare.
var ciRunFlag = regexp.MustCompile(`(?:^|\s)-(?:run|skip)[ =](?:'([^']*)'|"([^"]*)"|([^\s'"]+))`)

// testFuncDecl finds the names of top-level Test functions.
var testFuncDecl = regexp.MustCompile(`(?m)^func (Test\w*)\(`)

// topLevelAlternatives splits a regular expression at the '|' that sit
// outside every group, class and escape: "A(b|c)|D" yields "A(b|c)" and
// "D".
func topLevelAlternatives(pattern string) []string {
	var out []string
	depth, inClass, start := 0, false, 0
	for i := 0; i < len(pattern); i++ {
		switch c := pattern[i]; {
		case c == '\\':
			i++
		case inClass:
			inClass = c != ']'
		case c == '[':
			inClass = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == '|' && depth == 0:
			out = append(out, pattern[start:i])
			start = i + 1
		}
	}
	return append(out, pattern[start:])
}

// TestCIRunPatternsNameTests keeps the CI workflow honest: every
// alternative of every -run or -skip pattern must match at least one
// Test function in the repository (outside the separate bench module).
// A pattern naming a deleted or renamed test would otherwise run
// nothing and pass as "no tests to run". '^$', which selects no test
// on purpose, is exempt.
func TestCIRunPatternsNameTests(t *testing.T) {
	raw, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var tests []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "bench" || path == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncDecl.FindAllStringSubmatch(string(src), -1) {
			tests = append(tests, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	patterns := 0
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		for _, m := range ciRunFlag.FindAllStringSubmatch(line, -1) {
			pattern := m[1] + m[2] + m[3]
			if pattern == "^$" {
				continue
			}
			patterns++
			// go test matches the part before the first '/' against
			// top-level test names.
			top, _, _ := strings.Cut(pattern, "/")
			for _, alt := range topLevelAlternatives(top) {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("CI pattern %q: alternative %q does not compile: %v", pattern, alt, err)
					continue
				}
				matched := false
				for _, name := range tests {
					if re.MatchString(name) {
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("CI pattern %q: alternative %q names no Test function", pattern, alt)
				}
			}
		}
	}
	if patterns == 0 {
		t.Fatal("found no -run or -skip pattern in the CI workflow")
	}
}
