// Package vettest runs analyzers over fixture directories and checks their
// findings against `// want "regexp"` comments, in the style of
// golang.org/x/tools/go/analysis/analysistest — reimplemented on the
// stdlib-only framework because the module carries no external
// dependencies.
//
// A fixture is a directory of Go files forming one package. Every line that
// must produce a finding carries a trailing comment of the form
//
//	// want `regexp`
//	// want "regexp" "second regexp"
//
// with one pattern per expected finding on that line. Findings on lines
// with no matching want, and wants no finding matched, both fail the test.
// Fixtures are loaded under the synthetic import path
// <module>/fixture/<basename>, so later fixture dirs can import earlier
// ones (cross-package fact tests) and analyzers that gate on module
// membership see them as in-module.
package vettest

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/dice-project/dice/internal/analysis"
)

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// Run analyzes the fixture dirs (in order — put imported fixtures first)
// with the given analyzers and asserts findings match the want comments.
func Run(t *testing.T, analyzers []*analysis.Analyzer, dirs ...string) {
	t.Helper()
	root := moduleRoot(t)
	l := analysis.NewLoader(root)
	if err := l.Warm(append([]string{"./..."}, fixtureImports(t, dirs)...)...); err != nil {
		t.Fatalf("warming export data: %v", err)
	}
	var units []*analysis.Unit
	wants := make(map[string][]*want) // file:line -> expectations
	for _, dir := range dirs {
		abs, err := filepath.Abs(dir)
		if err != nil {
			t.Fatal(err)
		}
		u, err := l.LoadDir(abs, analysis.ModulePath+"/fixture/"+filepath.Base(abs))
		if err != nil {
			t.Fatalf("loading fixture %s: %v", dir, err)
		}
		units = append(units, u)
		collectWants(t, abs, wants)
	}
	d := analysis.NewDriver(analyzers...)
	findings, err := d.Run(units)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Position.Filename, f.Position.Line)
		if !claim(wants[key], f.Message) {
			t.Errorf("unexpected finding at %s:%d [%s]: %s",
				f.Position.Filename, f.Position.Line, f.Analyzer, f.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("missing finding at %s: no diagnostic matched %q", key, w.re.String())
			}
		}
	}
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

// claim marks the first unmatched want whose pattern matches msg.
func claim(ws []*want, msg string) bool {
	for _, w := range ws {
		if !w.matched && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// fixtureImports returns the packages the fixture dirs import from outside
// the synthetic fixture tree. A fixture may import a package nothing in the
// module itself depends on (the gob fixture of detrange does), so those are
// warmed explicitly.
func fixtureImports(t *testing.T, dirs []string) []string {
	t.Helper()
	fset := token.NewFileSet()
	seen := make(map[string]bool)
	var out []string
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if !seen[path] && !strings.HasPrefix(path, analysis.ModulePath+"/fixture/") {
					seen[path] = true
					out = append(out, path)
				}
			}
		}
	}
	return out
}

// collectWants scans the fixture dir's Go files for want comments.
func collectWants(t *testing.T, dir string, wants map[string][]*want) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			key := fmt.Sprintf("%s:%d", path, i+1)
			for _, pat := range splitPatterns(t, path, i+1, m[1]) {
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, pat, err)
				}
				wants[key] = append(wants[key], &want{re: re})
			}
		}
	}
}

// splitPatterns parses the quoted (or backquoted) patterns after "want".
func splitPatterns(t *testing.T, file string, line int, s string) []string {
	t.Helper()
	var pats []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"', '`':
			end := strings.IndexByte(s[1:], s[0])
			if end < 0 {
				t.Fatalf("%s:%d: unterminated want pattern: %s", file, line, s)
			}
			raw := s[:end+2]
			pat, err := strconv.Unquote(raw)
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %s: %v", file, line, raw, err)
			}
			pats = append(pats, pat)
			s = strings.TrimSpace(s[end+2:])
		default:
			t.Fatalf("%s:%d: want patterns must be quoted: %s", file, line, s)
		}
	}
	return pats
}

// moduleRoot walks up from the working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod found above working directory")
		}
		dir = parent
	}
}
