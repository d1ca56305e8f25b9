package vmdeflate

import (
	"cmp"
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

var (
	censusFlag      = flag.String("census", "", "run TestMutationCensus on this package (internal/cluster): every generated mutant laid over the module (minutes)")
	censusCheckFlag = flag.Bool("census.check", false, "run only a fixed seeded sample of 20 mutants and compare their lines with the committed census file")
)

// censusSample is the number of mutants the -census.check run samples.
const censusSample = 20

// censusFlips are the operator mutants: each comparison to its
// neighbour, + and - (numeric operands only) and && and || swapped.
var censusFlips = map[token.Token]token.Token{
	token.LSS: token.LEQ, token.LEQ: token.LSS, token.GTR: token.GEQ, token.GEQ: token.GTR,
	token.EQL: token.NEQ, token.NEQ: token.EQL,
	token.ADD: token.SUB, token.SUB: token.ADD, token.LAND: token.LOR, token.LOR: token.LAND,
}

// mutant is one source edit, bytes [start, end) of file replaced by
// repl, with what the tests did to it and its committed census verdict.
type mutant struct {
	file, op          string // file relative to the module root
	line, col         int
	start, end        int
	repl              string
	verdict, recorded string
}

func (m *mutant) key() string { return fmt.Sprintf("%s:%d:%d %s", m.file, m.line, m.col, m.op) }

// equivalent is the reason the committed census gives for a survivor no
// test can kill, or "".
func (m *mutant) equivalent() string {
	_, reason, _ := strings.Cut(m.recorded, "survived, equivalent: ")
	return reason
}

// text is the mutant's census line: its key, then the top-level tests
// that kill it, "survived" (with the committed reason when it is
// equivalent) or "does not build".
func (m *mutant) text() string {
	if r := m.equivalent(); r != "" && m.verdict == "survived" {
		return m.key() + " → survived, equivalent: " + r
	}
	return m.key() + " → " + m.verdict
}

// rank orders the census: survivors, killed, then those that do not build.
func (m *mutant) rank() int {
	switch m.verdict {
	case "survived":
		return 0
	case "does not build":
		return 2
	}
	return 1
}

// censusMutants enumerates the mutants of one package's non-test files
// in file and offset order, each with its verdict in the committed
// census, and returns the committed census by mutant key.
func censusMutants(t *testing.T, root, pkgPath, committed string) ([]*mutant, map[string]string) {
	mod := loadModule(t)
	pkg := mod.pkgs[modulePath+"/"+pkgPath]
	if pkg == nil {
		t.Fatalf("no package %s in the module", pkgPath)
	}
	info := mod.infos[pkg]
	var ms []*mutant
	add := func(pos, end token.Pos, op, repl string) {
		p := mod.fset.Position(pos)
		rel, err := filepath.Rel(root, p.Filename)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, &mutant{file: rel, op: op, line: p.Line, col: p.Column, start: p.Offset, end: mod.fset.Position(end).Offset, repl: repl})
	}
	for _, f := range mod.files[pkg] {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				to, ok := censusFlips[n.Op]
				if !ok || info.Types[n].Value != nil { // a constant folds at compile time
					return true
				}
				if b, ok := info.Types[n].Type.Underlying().(*types.Basic); (n.Op == token.ADD || n.Op == token.SUB) && (!ok || b.Info()&types.IsNumeric == 0) {
					return true
				}
				add(n.OpPos, n.OpPos+token.Pos(len(n.Op.String())), "flip "+n.Op.String()+" to "+to.String(), to.String())
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok && types.ExprString(call.Fun) != "panic" { // an assertion, not behaviour
					add(n.Pos(), n.End(), "drop "+types.ExprString(call.Fun)+"(…)", "")
				}
			}
			return true
		})
	}
	slices.SortFunc(ms, func(a, b *mutant) int { return cmp.Or(strings.Compare(a.file, b.file), a.start-b.start) })
	recorded := map[string]string{}
	for line := range strings.Lines(committed) {
		if k, v, ok := strings.Cut(strings.TrimSuffix(line, "\n"), " → "); ok && !strings.HasPrefix(k, "#") {
			recorded[k] = v
		}
	}
	for _, m := range ms {
		m.recorded = recorded[m.key()]
	}
	return ms, recorded
}

// censusRun gives each mutant its verdict, two at a time, each laid
// over the module by its own overlay file.
func censusRun(t *testing.T, pkgPath string, ms []*mutant) {
	var wg sync.WaitGroup
	next := make(chan *mutant)
	for range 2 {
		dir := t.TempDir()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := range next {
				src, err := os.ReadFile(m.file)
				if err != nil {
					t.Error(err)
					continue
				}
				overlay, err := writeOverlay(dir, m.file, slices.Concat(src[:m.start], []byte(m.repl), src[m.end:]))
				if err != nil {
					t.Error(err)
					continue
				}
				r, err := runMutant(pkgPath, "", overlay)
				switch {
				case err != nil:
					t.Errorf("%s: %v", m.key(), err)
				case r.buildFailed:
					m.verdict = "does not build"
				case len(r.killers) > 0:
					m.verdict = strings.Join(r.killers, " ")
				default:
					m.verdict = "survived"
				}
				t.Log(m.text())
			}
		}()
	}
	for _, m := range ms {
		next <- m
	}
	close(next)
	wg.Wait()
}

// TestMutationCensus is the census of one package: every comparison
// flipped to its neighbour, every numeric + / - and every && / ||
// swapped and every call statement dropped, each alone, against the
// package's tier-1 tests. It writes testdata/census/<pkg>.txt, one line
// per mutant with the tests that kill it, survivors first. A survivor
// no test can kill is explained in that file: append ", equivalent:
// <reason>" to its "survived" and rerun. The run fails on a survivor
// with no reason, and on a reason whose mutant is gone or killed. With
// -census.check it runs censusSample seeded mutants and fails where a
// line differs from the committed file.
//
//	go test -count=1 -run '^TestMutationCensus$' -census internal/cluster -timeout 90m .
func TestMutationCensus(t *testing.T) {
	if *censusFlag == "" {
		t.Skip("the census runs with -census <package>")
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	pkgPath := *censusFlag
	path := filepath.Join("testdata", "census", filepath.Base(pkgPath)+".txt")
	committed, err := os.ReadFile(path)
	if err != nil && (*censusCheckFlag || !os.IsNotExist(err)) {
		t.Fatal(err)
	}
	ms, recorded := censusMutants(t, root, pkgPath, string(committed))
	if *censusCheckFlag {
		if len(recorded) != len(ms) {
			t.Fatalf("%s lists %d mutants, the package has %d: rerun make census PKG=%s", path, len(recorded), len(ms), pkgPath)
		}
		sample := slices.Clone(ms)
		rand.New(rand.NewPCG(1, 2)).Shuffle(len(sample), func(i, j int) { sample[i], sample[j] = sample[j], sample[i] })
		sample = sample[:min(censusSample, len(sample))]
		censusRun(t, pkgPath, sample)
		for _, m := range sample {
			if want := m.key() + " → " + m.recorded; m.text() != want {
				t.Errorf("census line moved:\n got %s\nwant %s", m.text(), want)
			}
		}
		return
	}
	censusRun(t, pkgPath, ms)
	slices.SortStableFunc(ms, func(a, b *mutant) int { return a.rank() - b.rank() })
	var counts [3]int
	var lines []string
	equivalent, explained := 0, 0
	for _, m := range ms {
		counts[m.rank()]++
		lines = append(lines, m.text())
		switch {
		case m.verdict == "survived" && m.equivalent() != "":
			equivalent++
		case m.verdict == "survived":
			t.Errorf("survivor %s: kill it with a test, delete the code, or give its reason in %s", m.key(), path)
		case m.equivalent() != "":
			t.Errorf("%s is listed as equivalent in %s, and is now %s", m.key(), path, m.verdict)
		}
	}
	for _, v := range recorded {
		if strings.HasPrefix(v, "survived, equivalent: ") {
			explained++
		}
	}
	if explained > equivalent {
		t.Errorf("%s explains %d survivors, of which %d are left", path, explained, equivalent)
	}
	header := fmt.Sprintf("# census of %s: %d mutants, %d killed, %d survived (%d equivalent), %d do not build\n",
		pkgPath, len(ms), counts[1], counts[0], equivalent, counts[2])
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(header+strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log(strings.TrimSpace(header))
}
