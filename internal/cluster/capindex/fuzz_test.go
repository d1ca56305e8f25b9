package capindex

import (
	"math"
	"testing"

	"vmdeflate/internal/resources"
)

// fuzzNames is the name pool: few enough that ops keep hitting the same
// entries. Names alternate between two indexes, as servers do between
// priority pools.
var fuzzNames = [...]string{"s0", "s1", "s2", "s3", "s4", "s5", "s6"}

// fuzzKeys are the keys ops draw: finite, heavy in ties, both zeros.
var fuzzKeys = [...]float64{0, math.Copysign(0, -1), 0.25, 0.5, 0.5, 1, 1.0 / 3, 1}

// fuzzVector decodes a byte into a small CPU / memory vector, so
// payloads and demands tie and near-miss often.
func fuzzVector(b byte) resources.Vector {
	return resources.CPUMem(float64(b%4), float64(b/4%4))
}

// fuzzEntry is the model's view of one entry.
type fuzzEntry struct {
	key  float64
	free resources.Vector
}

// FuzzCapindexOps drives two indexes with byte-decoded upsert /
// UpsertFree / delete sequences over a small name pool and, after every
// op, holds each index to a model: its tree must be, node for node, the
// tree a fresh Index builds from its entry set, and FirstFitting,
// DescIter and Min must answer what a linear scan of its model answers. Each op is four bytes: kind, name, key, and a payload
// (UpsertFree) or a probe's demand and lower bound.
//
//	go test -run '^$' -fuzz FuzzCapindexOps -fuzztime 15s -fuzzminimizetime 200x ./internal/cluster/capindex
func FuzzCapindexOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 5, 1, 1, 1, 5, 0, 0, 1, 0, 2, 1, 0, 0})
	f.Add([]byte{1, 2, 3, 9, 1, 4, 4, 9, 1, 6, 5, 1, 0, 2, 2, 0, 1, 2, 7, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		ixs := []*Index{New(), New()}
		models := []map[string]fuzzEntry{{}, {}}
		for op := 0; op+4 <= len(data); op += 4 {
			b := data[op : op+4]
			ni := int(b[1]) % len(fuzzNames)
			name, p := fuzzNames[ni], ni%2
			ix, model := ixs[p], models[p]
			key := fuzzKeys[b[2]%byte(len(fuzzKeys))]
			switch b[0] % 3 {
			case 0:
				ix.Upsert(name, key)
				e := model[name] // a new entry's payload is zero
				e.key = key
				model[name] = e
			case 1:
				free := fuzzVector(b[3])
				ix.UpsertFree(name, key, free)
				model[name] = fuzzEntry{key, free}
			case 2:
				ix.Delete(name)
				delete(model, name)
			}
			lower := fuzzKeys[b[3]%byte(len(fuzzKeys))]
			checkFuzzIndexes(t, op/4, ixs, models, lower, fuzzVector(b[3]>>2))
		}
	})
}

// checkFuzzIndexes is FuzzCapindexOps' check after one op.
func checkFuzzIndexes(t *testing.T, op int, ixs []*Index, models []map[string]fuzzEntry, lower float64, size resources.Vector) {
	t.Helper()
	type hit struct {
		name string
		key  float64
		ok   bool
	}
	for p, ix := range ixs {
		model := models[p]
		rebuilt := New()
		for name, e := range model {
			rebuilt.UpsertFree(name, e.key, e.free)
		}
		if ix.Len() != len(model) || !structEqual(ix.root, rebuilt.root) {
			t.Fatalf("op %d index %d: the tree (%d entries) is not the fresh build of its %d entries", op, p, ix.Len(), len(model))
		}
		var want, least hit
		for name, e := range model {
			if !least.ok || less(e.key, name, least.key, least.name) {
				least = hit{name, e.key, true}
			}
			if e.key < lower || !size.FitsIn(e.free) {
				continue
			}
			if !want.ok || less(e.key, name, want.key, want.name) {
				want = hit{name, e.key, true}
			}
		}
		if n, k, ok := ix.FirstFitting(lower, size); (hit{n, k, ok}) != want {
			t.Fatalf("op %d index %d: FirstFitting(%v, %v) = %q %v %v, linear scan %+v", op, p, lower, size, n, k, ok, want)
		}
		if n, k, ok := ix.Min(); (hit{n, k, ok}) != least {
			t.Fatalf("op %d index %d: Min = %q %v %v, linear scan %+v", op, p, n, k, ok, least)
		}
		checkDescIter(t, op, p, ix, model)
	}
}

// checkDescIter walks the index in descending (key, name) order and
// holds each step to the model's next-largest entry, found by scan.
func checkDescIter(t *testing.T, op, p int, ix *Index, model map[string]fuzzEntry) {
	t.Helper()
	var it DescIter
	it.Reset(ix)
	prevName, prevKey, started := "", 0.0, false
	for step := range len(model) + 1 {
		wantName, wantKey, wantOK := "", 0.0, false
		for name, e := range model {
			if started && !less(e.key, name, prevKey, prevName) {
				continue
			}
			if !wantOK || less(wantKey, wantName, e.key, name) {
				wantName, wantKey, wantOK = name, e.key, true
			}
		}
		n, k, ok := it.Peek()
		if n != wantName || k != wantKey || ok != wantOK {
			t.Fatalf("op %d index %d: DescIter step %d = %q %v %v, linear scan %q %v %v", op, p, step, n, k, ok, wantName, wantKey, wantOK)
		}
		if !ok {
			return
		}
		prevName, prevKey, started = n, k, true
		it.Next()
	}
	t.Fatalf("op %d index %d: DescIter ran past the %d entries", op, p, len(model))
}
