package vmdeflate

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// modulePath is go.mod's module line: an import path under it is the
// repository directory of the same name.
const modulePath = "vmdeflate"

var (
	entryRE = regexp.MustCompile("`(cmd/[a-z]+|bench)\\b")
	pkgRE   = regexp.MustCompile("`(internal/[a-z/]+)`")
	testRE  = regexp.MustCompile("`((?:Test|Fuzz)\\w+)`")
	fileRE  = regexp.MustCompile("`((?:cmd|bench)/[\\w./-]+)`")
	funcRE  = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)
)

// figureRow is one row of FIGURES.md's table.
type figureRow struct {
	name                          string
	entries, pkgs, tests, goldens []string
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
// points, packages, pinning tests, golden files.
func readFigures(t *testing.T) []figureRow {
	t.Helper()
	data, err := os.ReadFile("FIGURES.md")
	if err != nil {
		t.Fatal(err)
	}
	var rows []figureRow
	for _, line := range strings.Split(string(data), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 8 || strings.HasPrefix(strings.TrimSpace(cells[1]), "-") || strings.TrimSpace(cells[1]) == "Figure" {
			continue
		}
		rows = append(rows, figureRow{
			name:    strings.TrimSpace(cells[1]),
			entries: matches(entryRE, cells[3]),
			pkgs:    matches(pkgRE, cells[4]),
			tests:   matches(testRE, cells[5]),
			goldens: matches(fileRE, cells[6]),
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
// figure from 3 to 22 has a row; every row names a test that exists; a
// row with an entry point names a golden file that exists; an entry
// point reaches the packages its row names; and the entry points
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
		if len(r.entries) > 0 && len(r.goldens) == 0 {
			t.Errorf("%s: prints a series but names no golden", r.name)
		}
		for _, g := range r.goldens {
			if _, err := os.Stat(g); err != nil {
				t.Errorf("%s: golden %v", r.name, err)
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

// listedPackage is the part of `go list -json` the declaration walk reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
}

// declaration is one package-level func, method, type, var or const of
// the module.
type declaration struct {
	obj   types.Object
	node  ast.Node     // what to walk for uses: the FuncDecl or the Spec
	block *ast.GenDecl // a const's block, nil otherwise
	pos   token.Position
}

// alwaysSelected are method names the standard library calls through
// an interface (fmt, errors, sort, container/heap): a live type keeps
// them without any module code selecting them.
var alwaysSelected = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// reachAllowed names internal declarations that stay unreached, each
// with the figure or invariant it serves.
var reachAllowed = map[string]string{
	// A test in another package cannot see a _test.go method, and no
	// shipped path lists the fleet: the engine keeps only server names.
	"cluster.Manager.Servers": "the metering-table invariant (every deflatable resident has its row, " +
		"no on-demand one does): clustersim's checkTable walks every server's residents through it",
}

// module is the type-checked module, tests left out.
type module struct {
	decls []*declaration
	infos map[*types.Package]*types.Info
	files map[*types.Package][]*ast.File
	pkgs  map[string]*types.Package // by import path
	fset  *token.FileSet
}

var (
	moduleOnce sync.Once
	moduleVal  *module
	moduleErr  error
)

// loadModule returns the type-checked module, loading it on first use:
// both walks over it read the same load.
func loadModule(t *testing.T) *module {
	t.Helper()
	moduleOnce.Do(func() { moduleVal, moduleErr = typeCheckModule() })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return moduleVal
}

// typeCheckModule type-checks every package of the module, leaving tests
// out, in `go list -deps` order.
func typeCheckModule() (*module, error) {
	out, err := exec.Command("go", "list", "-deps", "-json", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	mod := &module{
		infos: map[*types.Package]*types.Info{},
		files: map[*types.Package][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		fset:  token.NewFileSet(),
	}
	std := importer.Default()
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := mod.pkgs[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, err
		}
		if lp.Standard {
			continue
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(mod.fset, filepath.Join(lp.Dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(lp.ImportPath, mod.fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", lp.ImportPath, err)
		}
		mod.pkgs[lp.ImportPath] = pkg
		for _, f := range files {
			mod.decls = append(mod.decls, fileDecls(f, info, mod.fset)...)
		}
		mod.infos[pkg] = info
		mod.files[pkg] = files
	}
	return mod, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// fileDecls returns the package-level declarations of one file.
func fileDecls(f *ast.File, info *types.Info, fset *token.FileSet) []*declaration {
	var out []*declaration
	add := func(id *ast.Ident, node ast.Node, block *ast.GenDecl) {
		if id.Name == "_" {
			return
		}
		out = append(out, &declaration{obj: info.Defs[id], node: node, block: block, pos: fset.Position(id.Pos())})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			add(d.Name, d, nil)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, s, nil)
				case *ast.ValueSpec:
					var block *ast.GenDecl
					if d.Tok == token.CONST {
						block = d
					}
					for _, n := range s.Names {
						add(n, s, block)
					}
				}
			}
		}
	}
	return out
}

// receiverName returns the TypeName a method is declared on, or nil for
// a plain func.
func receiverName(obj types.Object) *types.TypeName {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	typ := recv.Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	if n, ok := typ.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// liveWalk is the state of one reachability walk over the module.
type liveWalk struct {
	mod      *module
	byObj    map[types.Object]*declaration
	methods  map[*types.TypeName][]*declaration
	blockOf  map[*ast.GenDecl][]*declaration
	live     map[*declaration]bool
	selected map[string]bool           // method names live code selects through an interface or type parameter
	ifaces   map[*types.Interface]bool // interfaces live code names or passes values to
	work     []*declaration
}

func (w *liveWalk) mark(d *declaration) {
	if d != nil && !w.live[d] {
		w.live[d] = true
		w.work = append(w.work, d)
	}
}

// markMethods marks every method called name on a live receiver type.
func (w *liveWalk) markMethods(name string) {
	for r, ms := range w.methods {
		if w.live[w.byObj[r]] {
			for _, m := range ms {
				if m.obj.Name() == name {
					w.mark(m)
				}
			}
		}
	}
}

// addIface records an interface live code converts values to.
func (w *liveWalk) addIface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		w.ifaces[it] = true
	}
}

// visit marks what one live declaration uses.
func (w *liveWalk) visit(d *declaration) {
	for _, sib := range w.blockOf[d.block] {
		w.mark(sib)
	}
	if tn, ok := d.obj.(*types.TypeName); ok {
		for _, m := range w.methods[tn] {
			if w.selected[m.obj.Name()] {
				w.mark(m)
			}
		}
	}
	uses := w.mod.infos[d.obj.Pkg()].Uses
	ast.Inspect(d.node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || uses[id] == nil {
			return true
		}
		obj := uses[id]
		switch o := obj.(type) {
		case *types.TypeName:
			w.addIface(o.Type())
		case *types.Func:
			obj = o.Origin()
			sig := o.Type().(*types.Signature)
			for i := 0; i < sig.Params().Len(); i++ {
				pt := sig.Params().At(i).Type()
				if sl, ok := pt.(*types.Slice); ok && sig.Variadic() && i == sig.Params().Len()-1 {
					pt = sl.Elem()
				}
				w.addIface(pt)
			}
			if sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) && !w.selected[o.Name()] {
				// A selection through an interface, or through a type
				// parameter (its method is its constraint's): the method
				// of that name on any live type may run. A concrete
				// selection marks just its method, below.
				w.selected[o.Name()] = true
				w.markMethods(o.Name())
			}
		}
		w.mark(w.byObj[obj])
		if r := receiverName(obj); r != nil {
			w.mark(w.byObj[r])
		}
		return true
	})
}

// implied marks the methods that a live type needs to satisfy a live
// interface (rand.Source's Seed, say, which only the standard library
// calls) and reports whether it marked any.
func (w *liveWalk) implied() bool {
	before := len(w.live)
	for r, ms := range w.methods {
		if !w.live[w.byObj[r]] {
			continue
		}
		for it := range w.ifaces {
			if !types.Implements(r.Type(), it) && !types.Implements(types.NewPointer(r.Type()), it) {
				continue
			}
			for _, m := range ms {
				if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, m.obj.Name()); obj != nil {
					w.mark(m)
				}
			}
		}
	}
	return len(w.live) > before
}

// unreached walks from every declaration outside internal/ and returns
// the internal declarations no such walk reaches. A func, type, var or
// const is live when live code uses it. A method is live when live code
// selects it on its own receiver; when its receiver type is live and
// live code selects its name through an interface or a type parameter
// (or it is alwaysSelected); or when the type needs it to satisfy an
// interface live code converts to. A const is live when a sibling in its
// block is. The method of a live internal interface is unreached when
// live code never selects its name through an interface or a type
// parameter.
func unreached(mod *module) []*declaration {
	decls := mod.decls
	w := &liveWalk{
		mod:      mod,
		byObj:    map[types.Object]*declaration{},
		methods:  map[*types.TypeName][]*declaration{},
		blockOf:  map[*ast.GenDecl][]*declaration{},
		live:     map[*declaration]bool{},
		selected: map[string]bool{},
		ifaces:   map[*types.Interface]bool{},
	}
	for _, d := range decls {
		w.byObj[d.obj] = d
		if r := receiverName(d.obj); r != nil {
			w.methods[r] = append(w.methods[r], d)
		}
		if d.block != nil {
			w.blockOf[d.block] = append(w.blockOf[d.block], d)
		}
	}
	for name := range alwaysSelected {
		w.selected[name] = true
	}
	for _, d := range decls {
		if !strings.HasPrefix(d.obj.Pkg().Path(), modulePath+"/internal/") || d.obj.Name() == "init" {
			w.mark(d)
		}
	}
	for {
		for len(w.work) > 0 {
			d := w.work[len(w.work)-1]
			w.work = w.work[:len(w.work)-1]
			w.visit(d)
		}
		if !w.implied() {
			break
		}
	}
	var dead []*declaration
	for _, d := range decls {
		if !w.live[d] {
			dead = append(dead, d)
			continue
		}
		it, ok := d.obj.Type().Underlying().(*types.Interface)
		if _, named := d.obj.(*types.TypeName); !ok || !named || !strings.HasPrefix(d.obj.Pkg().Path(), modulePath+"/internal/") {
			continue
		}
		for i := 0; i < it.NumExplicitMethods(); i++ {
			if m := it.ExplicitMethod(i); !w.selected[m.Name()] {
				dead = append(dead, &declaration{obj: m, pos: mod.fset.Position(m.Pos())})
			}
		}
	}
	return dead
}

// declName is a declaration's allowlist key: pkg.Name or pkg.Type.Method.
func declName(d *declaration) string {
	name := d.obj.Name()
	if r := receiverName(d.obj); r != nil {
		name = r.Name() + "." + name
	}
	return strings.TrimPrefix(d.obj.Pkg().Path(), modulePath+"/internal/") + "." + name
}

// TestEveryInternalDeclarationIsReached holds internal/ to what the
// commands and bench use: a func, method, type, var or const of an
// internal package that no command, no bench code and no root-package
// code reaches, even transitively, fails here with its position. A
// helper only tests use belongs in a _test.go file.
func TestEveryInternalDeclarationIsReached(t *testing.T) {
	mod := loadModule(t)
	dead := unreached(mod)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		if _, ok := reachAllowed[declName(d)]; ok {
			continue
		}
		rel, err := filepath.Rel(wd, d.pos.Filename)
		if err != nil {
			rel = d.pos.Filename
		}
		t.Errorf("%s:%d: %s is reached by no command or bench", rel, d.pos.Line, declName(d))
	}
	t.Logf("%d declarations, %d unreached", len(mod.decls), len(dead))
}

// knobExtras are the structs beyond the *Config / *Options of
// internal/ whose exported fields are settings a run could be given, by
// package under internal/. trace.ClassParams is not among them: it is
// the generators' calibration data, read from package tables, not a
// setting.
var knobExtras = map[string][]string{
	"apps":      {"WebApp", "SocialNetwork"},
	"cluster":   {"ServerSpec"},
	"perfmodel": {"Curve"},
	"policy":    {"LatencyAware"},
	"pricing":   {"Static", "Allocation"},
}

// knobFields returns every exported field of the knob structs, named
// package.Struct.Field: each exported struct of an internal/ package
// whose name ends in Config or Options, found by walking the package
// scopes so a new one cannot dodge the test, and the knobExtras.
func knobFields(t *testing.T, mod *module) map[*types.Var]string {
	t.Helper()
	fields := map[*types.Var]string{}
	add := func(pkgName string, obj types.Object) {
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			t.Fatalf("%s.%s is not a struct", pkgName, obj.Name())
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				fields[f] = pkgName + "." + obj.Name() + "." + f.Name()
			}
		}
	}
	for path, pkg := range mod.pkgs {
		pkgName, ok := strings.CutPrefix(path, modulePath+"/internal/")
		if !ok {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if _, isType := obj.(*types.TypeName); !isType || !obj.Exported() {
				continue
			}
			if _, isStruct := obj.Type().Underlying().(*types.Struct); isStruct &&
				(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				add(pkgName, obj)
			}
		}
	}
	for pkgName, structs := range knobExtras {
		pkg := mod.pkgs[modulePath+"/internal/"+pkgName]
		if pkg == nil {
			t.Fatalf("package internal/%s is not in the module", pkgName)
		}
		for _, name := range structs {
			obj := pkg.Scope().Lookup(name)
			if obj == nil {
				t.Fatalf("%s.%s does not exist", pkgName, name)
			}
			add(pkgName, obj)
		}
	}
	return fields
}

// knobAllowed names knobs that no non-test code sets, each with the
// test that needs to vary it.
var knobAllowed = map[string]string{
	"clustersim.Config.Shocks": "the only route to the resize path (GenerateShocks emits no ShockResize), " +
		"which bench's replay drives through cluster.Manager.ResizeServer",
	"trace.ShockConfig.MaxOutFraction": "the generator's cap tests vary it (TestRackShocksAreCorrelated, " +
		"TestMaxOutServersBoundary, TestRackShocksClampedToFleetAndCap in internal/trace/shocks_test.go) and FuzzShockInputs fuzzes it",
	"apps.Config.Duration": "the Figs 16-19 claim tests (wikiFixture, TestFig18MicroservicesServeThroughTheKnee, " +
		"TestFig19DeflationAwareLBCutsTail) and the apps tests shorten the 60-120 s runs to 20-40 s",
}

// knobWrites returns, for every field of the knob structs, whether some
// non-test code outside its own package's defaulting writes it: as a
// composite-literal key, or as the selector on the left of an
// assignment or an increment. Defaulting is applyDefaults and every
// Default* or New* function: a constructor that fills a field
// with a value of its own has chosen a constant, not taken a setting.
func knobWrites(mod *module, fields map[*types.Var]string) map[*types.Var]bool {
	written := map[*types.Var]bool{}
	note := func(uses map[*ast.Ident]types.Object, id *ast.Ident, skipPkg *types.Package) {
		if v, ok := uses[id].(*types.Var); ok && v.IsField() {
			if _, knob := fields[v]; knob && v.Pkg() != skipPkg {
				written[v] = true
			}
		}
	}
	noteLHS := func(uses map[*ast.Ident]types.Object, e ast.Expr, skipPkg *types.Package) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			note(uses, sel.Sel, skipPkg)
		}
	}
	for pkg, files := range mod.files {
		uses := mod.infos[pkg].Uses
		for _, f := range files {
			for _, decl := range f.Decls {
				var skipPkg *types.Package // writes to this package's fields are defaulting
				if fd, ok := decl.(*ast.FuncDecl); ok && isDefaulting(fd.Name.Name) {
					skipPkg = pkg
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						for _, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if id, ok := kv.Key.(*ast.Ident); ok {
									note(uses, id, skipPkg)
								}
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							noteLHS(uses, lhs, skipPkg)
						}
					case *ast.IncDecStmt:
						noteLHS(uses, n.X, skipPkg)
					}
					return true
				})
			}
		}
	}
	return written
}

// isDefaulting reports whether a function of this name fills its own
// package's structs with their defaults.
func isDefaulting(name string) bool {
	return name == "applyDefaults" || strings.HasPrefix(name, "Default") || strings.HasPrefix(name, "New")
}

// TestEveryKnobIsSet holds the knob structs (knobFields) to what the
// commands, bench and the code between them set: an exported field that
// no non-test code writes, other than its own package's defaulting,
// takes its default in every run a binary can make, so it is a constant
// that pretends to be a choice. It fails with the field's position.
// Counting any non-test write is enough: a write in a function no binary
// reaches already fails TestEveryInternalDeclarationIsReached. What it
// does not catch is a field written only with its default value from
// another package (a sweep that set Mechanism to the transparent
// mechanism it defaulted to anyway passed it, and so did clustersim's
// PriorityLevels), nor a constructor that copies an argument into a
// field, which the New* rule counts as defaulting; reading the code
// found those, and this test keeps the never-written class from coming
// back.
func TestEveryKnobIsSet(t *testing.T) {
	mod := loadModule(t)
	fields := knobFields(t, mod)
	written := knobWrites(mod, fields)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var unset []string
	exists := map[string]bool{}
	for f, name := range fields {
		exists[name] = true
		_, allowed := knobAllowed[name]
		switch {
		case written[f] && allowed:
			t.Errorf("%s is set outside tests now: take it off the allowlist", name)
		case !written[f] && !allowed:
			pos := mod.fset.Position(f.Pos())
			rel, err := filepath.Rel(wd, pos.Filename)
			if err != nil {
				rel = pos.Filename
			}
			unset = append(unset, fmt.Sprintf("%s:%d: %s is set by no command, bench or library code", rel, pos.Line, name))
		}
	}
	for name := range knobAllowed {
		if !exists[name] {
			t.Errorf("allowlisted knob %s does not exist", name)
		}
	}
	slices.Sort(unset)
	for _, msg := range unset {
		t.Error(msg)
	}
	t.Logf("%d knobs, %d allowlisted", len(fields), len(knobAllowed))
}
