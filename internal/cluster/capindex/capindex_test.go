package capindex

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"vmdeflate/internal/resources"
)

// refEntry mirrors one index entry in the flat reference model.
type refEntry struct {
	name string
	key  float64
}

// refModel is the brute-force oracle: a map kept in sync with the same
// upserts/deletes, queried by sorting.
type refModel map[string]float64

func (m refModel) sorted() []refEntry {
	out := make([]refEntry, 0, len(m))
	for n, k := range m {
		out = append(out, refEntry{n, k})
	}
	sort.Slice(out, func(i, j int) bool {
		return less(out[i].key, out[i].name, out[j].key, out[j].name)
	})
	return out
}

func collectFrom(ix *Index, lower float64) []refEntry {
	var out []refEntry
	ix.AscendFrom(lower, func(name string, key float64) bool {
		out = append(out, refEntry{name, key})
		return true
	})
	return out
}

func TestIndexBasics(t *testing.T) {
	ix := New()
	if ix.Len() != 0 {
		t.Fatalf("empty Len = %d", ix.Len())
	}
	if _, _, ok := ix.Min(); ok {
		t.Fatal("Min on empty index")
	}
	ix.Upsert("b", 0.5)
	ix.Upsert("a", 0.5)
	ix.Upsert("c", 0.2)
	if n, k, ok := ix.Min(); !ok || n != "c" || k != 0.2 {
		t.Fatalf("Min = %q %v %v", n, k, ok)
	}
	// Equal keys order by name.
	got := collectFrom(ix, 0)
	want := []refEntry{{"c", 0.2}, {"a", 0.5}, {"b", 0.5}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ascend = %v, want %v", got, want)
	}
	// Upsert moves a key; Delete removes.
	ix.Upsert("c", 0.9)
	if k, ok := ix.Key("c"); !ok || k != 0.9 {
		t.Fatalf("Key(c) = %v %v", k, ok)
	}
	ix.Delete("a")
	ix.Delete("ghost") // no-op
	got = collectFrom(ix, 0)
	want = []refEntry{{"b", 0.5}, {"c", 0.9}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after move/delete = %v, want %v", got, want)
	}
	if ix.Len() != 2 {
		t.Fatalf("Len = %d", ix.Len())
	}
}

func TestAscendFromLowerBound(t *testing.T) {
	ix := New()
	for i := 0; i < 100; i++ {
		ix.Upsert(fmt.Sprintf("s%03d", i), float64(i)/100)
	}
	got := collectFrom(ix, 0.95)
	if len(got) != 5 {
		t.Fatalf("entries >= 0.95: %d, want 5", len(got))
	}
	for i, e := range got {
		if e.name != fmt.Sprintf("s%03d", 95+i) {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
	// Early stop.
	var visited int
	ix.AscendFrom(0.5, func(string, float64) bool {
		visited++
		return visited < 3
	})
	if visited != 3 {
		t.Fatalf("visited = %d, want 3", visited)
	}
}

// TestIndexMatchesReferenceModel drives the treap with a seeded random
// op sequence and checks every query against the flat sorted oracle —
// the determinism contract the cluster differential suite builds on.
func TestIndexMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ix := New()
	ref := refModel{}
	for op := 0; op < 5000; op++ {
		name := fmt.Sprintf("node-%03d", rng.Intn(200))
		switch rng.Intn(10) {
		case 0: // delete
			ix.Delete(name)
			delete(ref, name)
		default: // upsert, with deliberate key collisions
			key := float64(rng.Intn(50)) / 50
			ix.Upsert(name, key)
			ref[name] = key
		}
		if ix.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, ref %d", op, ix.Len(), len(ref))
		}
		if op%50 != 0 {
			continue
		}
		lower := rng.Float64()
		got := collectFrom(ix, lower)
		var want []refEntry
		for _, e := range ref.sorted() {
			if e.key >= lower {
				want = append(want, e)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("op %d bound %v:\n got %v\nwant %v", op, lower, got, want)
		}
	}
}

// TestFirstFitting pins the per-index tightest-fit query: first entry
// in (key, name) order at or above the bound whose payload holds the
// demand.
func TestFirstFitting(t *testing.T) {
	// fits builds the index with a payload that holds the unit demand on
	// exactly the allowed entries.
	fits := func(allowed ...string) *Index {
		ix := New()
		for _, e := range []refEntry{{"a", 0.2}, {"b", 0.4}, {"c", 0.4}, {"d", 0.9}} {
			var free resources.Vector
			for _, a := range allowed {
				if e.name == a {
					free = resources.New(1, 1, 1, 1)
				}
			}
			ix.UpsertFree(e.name, e.key, free)
		}
		return ix
	}
	size := resources.New(1, 1, 1, 1)
	if n, k, ok := fits("b", "c", "d").FirstFitting(0, size); !ok || n != "b" || k != 0.4 {
		t.Fatalf("FirstFitting = %q %v %v, want b 0.4 true", n, k, ok)
	}
	// The bound prunes below; name breaks the 0.4 tie.
	if n, _, ok := fits("a", "b", "c", "d").FirstFitting(0.41, size); !ok || n != "d" {
		t.Fatalf("FirstFitting above bound = %q %v, want d", n, ok)
	}
	if _, _, ok := fits().FirstFitting(0, size); ok {
		t.Fatal("FirstFitting with nothing fitting should miss")
	}
}

// TestMinFitting pins the merged best-of-indexes query: the global
// (key, name) minimum across per-index answers, each with its own lower
// bound, equal to what one combined index would return.
func TestMinFitting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const parts = 3
	ixs := make([]*Index, parts)
	lowers := make([]float64, parts)
	for i := range ixs {
		ixs[i] = New()
	}
	combined := New()
	for i := 0; i < 90; i++ {
		name := fmt.Sprintf("node-%03d", i)
		key := float64(rng.Intn(20)) / 20 // deliberate cross-partition ties
		// The payload holds the unit demand exactly where key >= 0.3.
		ixs[i%parts].UpsertFree(name, key, resources.New(key+0.7, key+0.7, key+0.7, key+0.7))
		combined.UpsertFree(name, key, resources.New(key+0.7, key+0.7, key+0.7, key+0.7))
	}
	fits := resources.New(1, 1, 1, 1)
	for trial := 0; trial < 50; trial++ {
		lower := rng.Float64()
		for i := range lowers {
			lowers[i] = lower
		}
		gn, gk, gok := MinFitting(ixs, lowers, fits)
		wn, wk, wok := combined.FirstFitting(lower, fits)
		if gok != wok || gn != wn || gk != wk {
			t.Fatalf("bound %v: MinFitting = %q %v %v, combined = %q %v %v",
				lower, gn, gk, gok, wn, wk, wok)
		}
	}
	// Nil indexes (a pool absent from a partition) are skipped.
	if _, _, ok := MinFitting([]*Index{nil, nil}, []float64{0, 0}, fits); ok {
		t.Fatal("MinFitting over nil indexes should miss")
	}
}

// TestDescIterMatchesReference drives the descending iterator against
// the sorted oracle under churn — the bound-pruned pressure scan leans
// on Peek/Next realizing exactly the reverse (key, name) order.
func TestDescIterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ix := New()
	ref := refModel{}
	var it DescIter
	for op := 0; op < 3000; op++ {
		name := fmt.Sprintf("node-%03d", rng.Intn(150))
		switch rng.Intn(8) {
		case 0: // delete
			ix.Delete(name)
			delete(ref, name)
		default: // upsert with deliberate key collisions
			key := float64(rng.Intn(40)) / 40
			ix.Upsert(name, key)
			ref[name] = key
		}
		if op%37 != 0 {
			continue
		}
		it.Reset(ix)
		sorted := ref.sorted()
		for i := len(sorted) - 1; i >= 0; i-- {
			n, k, ok := it.Peek()
			if !ok || n != sorted[i].name || k != sorted[i].key {
				t.Fatalf("op %d pos %d: Peek = %q %v %v, want %q %v",
					op, len(sorted)-1-i, n, k, ok, sorted[i].name, sorted[i].key)
			}
			it.Next()
		}
		if _, _, ok := it.Peek(); ok {
			t.Fatalf("op %d: iterator not exhausted after %d entries", op, len(sorted))
		}
		it.Next() // Next past the end is a no-op, not a panic.
	}
}

// TestDescIterEmpty pins the empty-index edge.
func TestDescIterEmpty(t *testing.T) {
	var it DescIter
	it.Reset(New())
	if _, _, ok := it.Peek(); ok {
		t.Fatal("Peek on empty index should miss")
	}
	it.Next()
	if _, _, ok := it.Peek(); ok {
		t.Fatal("Peek after Next on empty index should miss")
	}
}

// structEqual compares two treaps node by node — shape included.
func structEqual(a, b *node) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.key == b.key && a.name == b.name && a.prio == b.prio &&
		structEqual(a.left, b.left) && structEqual(a.right, b.right)
}

// TestDeleteReinsertMatchesRebuilt is the canonical-shape property the
// revocation path leans on: because heap priorities derive from names
// and the BST order is (key, name), the treap's SHAPE — not just its
// in-order contents — is a pure function of the entry set. Any
// delete/reinsert history (a server revoked and restored arbitrarily
// many times) must therefore leave the index structurally identical to
// one rebuilt from scratch, so iteration cost and visit order can never
// drift with churn.
func TestDeleteReinsertMatchesRebuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ix := New()
	model := refModel{}
	for op := 0; op < 3000; op++ {
		name := fmt.Sprintf("node-%03d", rng.Intn(120))
		switch rng.Intn(5) {
		case 0, 1: // delete (revocation)
			ix.Delete(name)
			delete(model, name)
		default: // upsert (restore / key move), with key collisions
			key := float64(rng.Intn(40)) / 40
			ix.Upsert(name, key)
			model[name] = key
		}
		if op%97 != 0 {
			continue
		}
		rebuilt := New()
		// Insert in sorted order — any order must yield the same tree.
		for _, e := range model.sorted() {
			rebuilt.Upsert(e.name, e.key)
		}
		if !structEqual(ix.root, rebuilt.root) {
			t.Fatalf("op %d: churned treap shape diverged from rebuilt-from-scratch", op)
		}
	}
	// And once more with a reversed insertion order, to pin that the
	// shape is insertion-order independent.
	entries := model.sorted()
	rev := New()
	for i := len(entries) - 1; i >= 0; i-- {
		rev.Upsert(entries[i].name, entries[i].key)
	}
	if !structEqual(ix.root, rev.root) {
		t.Fatal("reverse-order rebuild diverged: treap shape depends on insertion order")
	}
}

// TestRekeyInPlaceKeepsCanonicalTree pins what Upsert's in-place re-key
// must not change: the churned index reuses each entry's node across key
// moves, yet stays node-for-node the tree a fresh Index builds from the
// final entry set, so every query — ascending first-fit, the merged
// MinFitting, the descending iterator — answers exactly as the rebuilt
// index does. The sequence is mostly re-keys, with inserts and deletes
// mixed in so reused nodes sit next to fresh ones.
func TestRekeyInPlaceKeepsCanonicalTree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ix := New()
	model := refModel{}
	for op := 0; op < 4000; op++ {
		name := fmt.Sprintf("node-%03d", rng.Intn(90))
		if rng.Intn(10) == 0 {
			ix.Delete(name)
			delete(model, name)
		} else {
			before := ix.nodes[name]
			key := float64(rng.Intn(60)) / 60 // collisions on purpose
			ix.UpsertFree(name, key, suffixFree(name))
			model[name] = key
			if before != nil && ix.nodes[name] != before {
				t.Fatalf("op %d: re-key of %s replaced its node", op, name)
			}
		}
		if op%131 != 0 {
			continue
		}
		rebuilt := New()
		for _, e := range model.sorted() {
			rebuilt.UpsertFree(e.name, e.key, suffixFree(e.name))
		}
		if !structEqual(ix.root, rebuilt.root) {
			t.Fatalf("op %d: re-keyed treap is not the canonical tree of its entry set", op)
		}
		if ix.Len() != len(model) {
			t.Fatalf("op %d: Len = %d, want %d", op, ix.Len(), len(model))
		}
		for n, k := range model {
			if got, ok := ix.Key(n); !ok || got != k {
				t.Fatalf("op %d: Key(%s) = %v %v, want %v", op, n, got, ok, k)
			}
		}
		fits := resources.New(1, 1, 1, 1)
		for _, lower := range []float64{0, 0.25, 0.5, 0.9} {
			gn, gk, gok := ix.FirstFitting(lower, fits)
			wn, wk, wok := rebuilt.FirstFitting(lower, fits)
			if gn != wn || gk != wk || gok != wok {
				t.Fatalf("op %d: FirstFitting(%v) = %q %v %v, rebuilt answers %q %v %v", op, lower, gn, gk, gok, wn, wk, wok)
			}
			gn, gk, gok = MinFitting([]*Index{ix, nil}, []float64{lower, 0}, fits)
			if gn != wn || gk != wk || gok != wok {
				t.Fatalf("op %d: MinFitting(%v) = %q %v %v, rebuilt answers %q %v %v", op, lower, gn, gk, gok, wn, wk, wok)
			}
		}
		var got, want DescIter
		got.Reset(ix)
		want.Reset(rebuilt)
		for {
			gn, gk, gok := got.Peek()
			wn, wk, wok := want.Peek()
			if gn != wn || gk != wk || gok != wok {
				t.Fatalf("op %d: DescIter diverged: %q %v %v, rebuilt %q %v %v", op, gn, gk, gok, wn, wk, wok)
			}
			if !gok {
				break
			}
			got.Next()
			want.Next()
		}
	}
}

// suffixFree is a payload that holds the unit demand on two names in
// three, chosen by the name's last byte.
func suffixFree(name string) resources.Vector {
	if name[len(name)-1]%3 != 0 {
		return resources.New(1, 1, 1, 1)
	}
	return resources.Vector{}
}

// rekeyIndex is the steady state of a dirty sync: s servers indexed,
// and a stream of key moves that never repeats a server's previous key
// (golden-ratio steps), so every Upsert is a real re-key.
func rekeyIndex(s int) (rekey func(i int)) {
	ix := New()
	names := make([]string, s)
	for i := range names {
		names[i] = fmt.Sprintf("node-%03d", i)
		ix.Upsert(names[i], float64(i)/float64(s))
	}
	return func(i int) {
		ix.Upsert(names[i%s], math.Mod(float64(i+1)*0.6180339887498949, 1))
	}
}

// TestRekeyZeroAllocs is the work-counter half of the in-place re-key:
// moving an existing entry allocates nothing.
func TestRekeyZeroAllocs(t *testing.T) {
	rekey := rekeyIndex(200)
	i := 0
	if got := testing.AllocsPerRun(1000, func() { rekey(i); i++ }); got != 0 {
		t.Errorf("re-key allocates %.1f allocs/op, want 0", got)
	}
}

// BenchmarkUpsertRekeySteadyState is the re-key `make bench-allocs`
// gates at 0 allocs/op: one of the two index upserts every dirty server
// costs per sync.
func BenchmarkUpsertRekeySteadyState(b *testing.B) {
	rekey := rekeyIndex(655)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rekey(i)
	}
}

// TestFittingProbesMatchLinearScan is the property the surplus path
// leans on: the size-taking FirstFitting / MinFitting return exactly the
// entry a linear scan in (key, name) order finds first — over random
// inserts, re-keys, payload-only updates at an unchanged key (a server
// whose free vector moved while its dominant share did not) and deletes,
// with payloads and demands drawn so that most probes pass near-misses
// that fit in one dimension only.
func TestFittingProbesMatchLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const parts = 3
	type entry struct {
		key  float64
		free resources.Vector
	}
	ixs := make([]*Index, parts)
	for i := range ixs {
		ixs[i] = New()
	}
	model := map[string]entry{}
	partOf := func(name string) int { return int(name[len(name)-1]) % parts }
	randFree := func() resources.Vector {
		return resources.CPUMem(float64(rng.Intn(9)), float64(rng.Intn(9))*1024)
	}
	for op := 0; op < 6000; op++ {
		name := fmt.Sprintf("node-%03d", rng.Intn(120))
		ix := ixs[partOf(name)]
		old, present := model[name]
		switch r := rng.Intn(10); {
		case r == 0:
			ix.Delete(name)
			delete(model, name)
		case r <= 2 && present: // same key, new payload
			e := entry{old.key, randFree()}
			ix.UpsertFree(name, e.key, e.free)
			model[name] = e
		case r == 3 && present: // re-key alone: the payload must survive
			e := entry{float64(rng.Intn(30)) / 30, old.free}
			ix.Upsert(name, e.key)
			model[name] = e
		default:
			e := entry{float64(rng.Intn(30)) / 30, randFree()}
			ix.UpsertFree(name, e.key, e.free)
			model[name] = e
		}
		if op%7 != 0 {
			continue
		}
		size := resources.CPUMem(float64(1+rng.Intn(8)), float64(1+rng.Intn(8))*1024)
		lowers := make([]float64, parts)
		for i := range lowers {
			lowers[i] = float64(rng.Intn(31)) / 30
		}
		// The oracle: per partition, and merged, the (key, name) minimum
		// among in-range entries whose payload holds the demand.
		var want [parts + 1]struct {
			name string
			key  float64
			ok   bool
		}
		for n, e := range model {
			p := partOf(n)
			if e.key < lowers[p] || !size.FitsIn(e.free) {
				continue
			}
			for _, w := range []int{p, parts} {
				if !want[w].ok || less(e.key, n, want[w].key, want[w].name) {
					want[w].name, want[w].key, want[w].ok = n, e.key, true
				}
			}
		}
		for p, ix := range ixs {
			n, k, ok := ix.FirstFitting(lowers[p], size)
			if n != want[p].name || k != want[p].key || ok != want[p].ok {
				t.Fatalf("op %d: partition %d FirstFitting(%v, %v) = %q %v %v, linear scan finds %+v", op, p, lowers[p], size, n, k, ok, want[p])
			}
		}
		n, k, ok := MinFitting(ixs, lowers, size)
		if n != want[parts].name || k != want[parts].key || ok != want[parts].ok {
			t.Fatalf("op %d: MinFitting(%v, %v) = %q %v %v, linear scan finds %+v", op, lowers, size, n, k, ok, want[parts])
		}
	}
}

// surplusProbe is the steady state of a surplus lookup on a packed
// fleet: s servers indexed by free share, and a demand that about a
// tenth of them — the ones the walk meets first — miss by one dimension.
func surplusProbe(s int) (probe func() (string, bool)) {
	ix := New()
	for i := 0; i < s; i++ {
		share := float64(i) / float64(s)
		free := resources.CPUMem(48*share, 131072*share)
		if i < s/2+s/10 {
			free = resources.CPUMem(48*share, 1024) // near-miss: cores fit, memory does not
		}
		ix.UpsertFree(fmt.Sprintf("node-%04d", i), share, free)
	}
	size := resources.CPUMem(24, 65536)
	return func() (string, bool) {
		name, _, ok := ix.FirstFitting(0.5, size)
		return name, ok
	}
}

// TestSurplusProbeZeroAllocs: a probe allocates nothing and lands on the
// first entry past the near-misses.
func TestSurplusProbeZeroAllocs(t *testing.T) {
	probe := surplusProbe(1000)
	if name, ok := probe(); !ok || name != "node-0600" {
		t.Fatalf("probe = %q %v, want node-0600 (100 near-misses ahead of it)", name, ok)
	}
	if got := testing.AllocsPerRun(1000, func() { probe() }); got != 0 {
		t.Errorf("surplus probe allocates %.1f allocs/op, want 0", got)
	}
}

// BenchmarkSurplusProbeSteadyState is the surplus lookup `make
// bench-allocs` gates at 0 allocs/op: one FirstFitting over 1,000
// entries that passes 100 near-misses before its fit.
func BenchmarkSurplusProbeSteadyState(b *testing.B) {
	probe := surplusProbe(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := probe(); !ok {
			b.Fatal("probe missed")
		}
	}
}
