package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// registrars maps each registry lookup to the kind it registers.
var registrars = map[string]string{
	"GetCounter":   "counter",
	"GetGauge":     "gauge",
	"GetHistogram": "histogram",
	"GetTimer":     "timer",
}

// TestMetricNamesMatchDesign keeps DESIGN.md §10's metric table and the
// code in step: every name the module's non-test Go registers must be in
// the table with its kind, and every name in the table must be registered.
// The nested bench module is not part of the module and is skipped.
func TestMetricNamesMatchDesign(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..")) // the module root
	if err != nil {
		t.Fatal(err)
	}
	emitted, where := emittedMetrics(t, root)
	documented := documentedMetrics(t, filepath.Join(root, "DESIGN.md"))
	var problems []string
	for name, kind := range emitted {
		switch doc, ok := documented[name]; {
		case !ok:
			problems = append(problems, name+" ("+kind+", "+where[name]+") is missing from the table")
		case doc != kind:
			problems = append(problems, name+" is a "+kind+" ("+where[name]+") but the table says "+doc)
		}
	}
	for name := range documented {
		if _, ok := emitted[name]; !ok {
			problems = append(problems, name+" is in the table but nothing registers it")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error("DESIGN.md §10: " + p)
	}
	if len(emitted) == 0 {
		t.Fatal("found no metric registrations; the source walk is broken")
	}
}

// emittedMetrics parses every non-test Go file of the module and returns
// each registered metric name with its kind, and where it is registered.
// It fails the test on a name that is not a string literal, since such a
// name cannot be checked against the table.
func emittedMetrics(t *testing.T, root string) (kinds, where map[string]string) {
	kinds, where = map[string]string{}, map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// The go tool's rules: skip testdata and dot/underscore
			// directories, and nested modules.
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		qualifiers, unqualified := obsNames(f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			var fn string
			switch fun := call.Fun.(type) {
			case *ast.SelectorExpr:
				if x, ok := fun.X.(*ast.Ident); ok && qualifiers[x.Name] {
					fn = fun.Sel.Name
				}
			case *ast.Ident:
				if unqualified {
					fn = fun.Name
				}
			}
			kind, ok := registrars[fn]
			if !ok {
				return true
			}
			pos := fset.Position(call.Pos())
			rel, _ := filepath.Rel(root, pos.Filename)
			at := rel + ":" + strconv.Itoa(pos.Line)
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Errorf("%s: %s takes a name that is not a string literal", at, fn)
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Errorf("%s: %v", at, err)
				return true
			}
			if prev, ok := kinds[name]; ok && prev != kind {
				t.Errorf("%s: %s registered as a %s here and as a %s at %s", at, name, kind, prev, where[name])
				return true
			}
			if _, ok := kinds[name]; !ok {
				kinds[name], where[name] = kind, at
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return kinds, where
}

// obsNames returns the identifiers through which file f reaches this
// package's registry (its import name or alias), and whether it calls the
// registry unqualified: from inside the package or through a dot import.
func obsNames(f *ast.File) (qualifiers map[string]bool, unqualified bool) {
	qualifiers = map[string]bool{}
	unqualified = f.Name.Name == "obs"
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path != "nsync/internal/obs" {
			continue
		}
		switch {
		case imp.Name == nil:
			qualifiers["obs"] = true
		case imp.Name.Name == ".":
			unqualified = true
		case imp.Name.Name != "_":
			qualifiers[imp.Name.Name] = true
		}
	}
	return qualifiers, unqualified
}

var (
	backquoted = regexp.MustCompile("`([^`]+)`")
	braceGroup = regexp.MustCompile(`\{([^{}]*)\}`)
)

// documentedMetrics reads the metric table of DESIGN.md §10: the first
// cell's backquoted names, with {a,b} groups expanded, and the second
// cell's kind.
func documentedMetrics(t *testing.T, path string) map[string]string {
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	in := false
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "## ") {
			in = strings.HasPrefix(line, "## 10. ")
			continue
		}
		if !in || !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			continue
		}
		kind := strings.TrimSpace(cells[2])
		for _, m := range backquoted.FindAllStringSubmatch(cells[1], -1) {
			for _, name := range expandBraces(m[1]) {
				if prev, ok := out[name]; ok {
					t.Errorf("DESIGN.md §10: %s is listed twice (%s and %s)", name, prev, kind)
				}
				out[name] = kind
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("DESIGN.md §10 has no metric table")
	}
	return out
}

// expandBraces expands every {a,b,...} group of s, left to right.
func expandBraces(s string) []string {
	loc := braceGroup.FindStringSubmatchIndex(s)
	if loc == nil {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[loc[2]:loc[3]], ",") {
		out = append(out, expandBraces(s[:loc[0]]+strings.TrimSpace(alt)+s[loc[1]:])...)
	}
	return out
}
