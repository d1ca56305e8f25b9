package vmdeflate

import (
	"errors"
	"fmt"
	"go/build"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// modulePath is go.mod's module line: an import path under it is the
// repository directory of the same name.
const modulePath = "vmdeflate"

var (
	entryRE = regexp.MustCompile("`(cmd/[a-z]+|bench)\\b")
	pkgRE   = regexp.MustCompile("`(internal/[a-z/]+)`")
	testRE  = regexp.MustCompile("`((?:Test|Fuzz)\\w+)`")
	funcRE  = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)
)

// figureRow is one row of FIGURES.md's table.
type figureRow struct {
	name                 string
	entries, pkgs, tests []string
}

// matches returns the first group of every match of re in s.
func matches(re *regexp.Regexp, s string) []string {
	var out []string
	for _, m := range re.FindAllStringSubmatch(s, -1) {
		out = append(out, m[1])
	}
	return out
}

// readFigures parses FIGURES.md's table: figure, what it shows, entry
// points, packages, pinning tests.
func readFigures(t *testing.T) []figureRow {
	t.Helper()
	data, err := os.ReadFile("FIGURES.md")
	if err != nil {
		t.Fatal(err)
	}
	var rows []figureRow
	for _, line := range strings.Split(string(data), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 7 || strings.HasPrefix(strings.TrimSpace(cells[1]), "-") || strings.TrimSpace(cells[1]) == "Figure" {
			continue
		}
		rows = append(rows, figureRow{
			name:    strings.TrimSpace(cells[1]),
			entries: matches(entryRE, cells[3]),
			pkgs:    matches(pkgRE, cells[4]),
			tests:   matches(testRE, cells[5]),
		})
	}
	return rows
}

// reach adds dir and every in-module package it imports, transitively
// and leaving tests out, to seen.
func reach(t *testing.T, dir string, seen map[string]bool) {
	t.Helper()
	if seen[dir] {
		return
	}
	seen[dir] = true
	pkg, err := build.ImportDir(dir, 0)
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	for _, imp := range pkg.Imports {
		if rel, ok := strings.CutPrefix(imp, modulePath+"/"); ok {
			reach(t, rel, seen)
		}
	}
}

// repoTests returns the name of every test and fuzz target in the
// repository.
func repoTests(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, name := range matches(funcRE, string(src)) {
			names[name] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestFiguresReachEveryPackage holds FIGURES.md to the code: every
// figure from 3 to 22 has a row; every row names a test that exists; an
// entry point reaches the packages its row names; and the entry points
// together reach every package under internal/, so a package that no
// figure, trace or scale run needs fails here.
func TestFiguresReachEveryPackage(t *testing.T) {
	rows := readFigures(t)
	tests := repoTests(t)
	reached := map[string]bool{}
	have := map[string]bool{}
	for _, r := range rows {
		have[r.name] = true
		if len(r.tests) == 0 {
			t.Errorf("%s: names no test", r.name)
		}
		for _, name := range r.tests {
			if !tests[name] {
				t.Errorf("%s: test %s does not exist", r.name, name)
			}
		}
		rowReach := map[string]bool{}
		for _, e := range r.entries {
			reach(t, e, rowReach)
		}
		for dir := range rowReach {
			reached[dir] = true
		}
		for _, p := range r.pkgs {
			if len(r.entries) > 0 && !rowReach[p] {
				t.Errorf("%s: %v does not reach %s", r.name, r.entries, p)
			}
		}
	}
	for n := 3; n <= 22; n++ {
		if !have[fmt.Sprintf("Fig %d", n)] {
			t.Errorf("FIGURES.md has no row for Fig %d", n)
		}
	}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		var noGo *build.NoGoError
		if _, err := build.ImportDir(path, 0); errors.As(err, &noGo) {
			return nil
		} else if err != nil {
			return err
		}
		if !reached[filepath.ToSlash(path)] {
			t.Errorf("package %s is reached by no entry point in FIGURES.md", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d rows, %d in-module packages reached", len(rows), len(reached))
}
