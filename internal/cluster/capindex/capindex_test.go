package capindex

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
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
// in (key, name) order at or above the bound that passes the filter.
func TestFirstFitting(t *testing.T) {
	ix := New()
	ix.Upsert("a", 0.2)
	ix.Upsert("b", 0.4)
	ix.Upsert("c", 0.4)
	ix.Upsert("d", 0.9)
	fits := func(allowed ...string) func(string) bool {
		return func(n string) bool {
			for _, a := range allowed {
				if n == a {
					return true
				}
			}
			return false
		}
	}
	if n, k, ok := ix.FirstFitting(0, fits("b", "c", "d")); !ok || n != "b" || k != 0.4 {
		t.Fatalf("FirstFitting = %q %v %v, want b 0.4 true", n, k, ok)
	}
	// The bound prunes below; name breaks the 0.4 tie.
	if n, _, ok := ix.FirstFitting(0.41, fits("a", "b", "c", "d")); !ok || n != "d" {
		t.Fatalf("FirstFitting above bound = %q %v, want d", n, ok)
	}
	if _, _, ok := ix.FirstFitting(0, fits()); ok {
		t.Fatal("FirstFitting with nothing fitting should miss")
	}
}

// TestMinFitting pins the merged best-of-partitions query: the global
// (key, name) minimum across per-partition answers, each with its own
// lower bound, equal to what one combined index would return.
func TestMinFitting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const parts = 3
	ixs := make([]*Index, parts)
	lowers := make([]float64, parts)
	for i := range ixs {
		ixs[i] = New()
	}
	combined := New()
	keyOf := map[string]float64{}
	for i := 0; i < 90; i++ {
		name := fmt.Sprintf("node-%03d", i)
		key := float64(rng.Intn(20)) / 20 // deliberate cross-partition ties
		ixs[i%parts].Upsert(name, key)
		combined.Upsert(name, key)
		keyOf[name] = key
	}
	fits := func(n string) bool { return keyOf[n] >= 0.3 }
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
			ix.Upsert(name, key)
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
			rebuilt.Upsert(e.name, e.key)
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
		fits := func(n string) bool { return n[len(n)-1]%3 != 0 }
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
