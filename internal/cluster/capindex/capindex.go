// Package capindex is the cluster manager's incremental capacity index:
// the data structures that turn per-arrival O(servers × domains) scans
// into O(log servers) ordered-index queries.
//
// # Architecture
//
// The package provides Index, deliberately ignorant of the cluster types
// that use it: an ordered set of servers keyed by (key, name), where key
// is the server's dominant free share (max over dimensions of
// free/capacity). It is a treap whose heap priorities are derived
// deterministically from the server name (FNV-1a), so the tree shape —
// and therefore iteration cost — depends only on the inserted set, never
// on insertion order or a random source. AscendFrom iterates entries in
// ascending (key, name) order starting at a key lower bound, pruning
// whole subtrees below the bound; a tightest-fit surplus query visits
// the fitting server with the smallest free share first. Which servers'
// keys are stale is the cluster manager's business (its dirty list,
// cluster/dirty.go).
//
// An entry may carry a payload: one resources.Vector, stored with
// UpsertFree, which the surplus index uses for its server's free
// capacity. FirstFitting takes the demand and tests it against the
// payload of the node the walk is standing on, so a probe
// costs no callback and no lookup outside the tree. The payload is the
// only thing the package knows about what it indexes — it is still
// ignorant of cluster types — and an index that never stores one (the
// pressure path's bound index) pays 32 idle bytes per entry.
//
// # Determinism invariants
//
// Ties on key are broken by name everywhere (Less, AscendFrom, Min), so
// an index query returns the same server as a brute-force linear scan
// that applies the same (key, name) minimisation — the property the
// cluster package's differential suite asserts bit-for-bit.
package capindex

import (
	"hash/fnv"

	"vmdeflate/internal/resources"
)

// node is one treap node: BST-ordered by (key, name), heap-ordered by
// prio. free is the entry's payload (zero unless UpsertFree stored one).
// What a surplus probe reads — key, payload, children — comes first, so
// a visit stays within the node's leading 56 bytes.
type node struct {
	key         float64
	free        resources.Vector
	left, right *node
	prio        uint64
	name        string
}

// less orders entries by (key, name) ascending — the tightest-fit scan
// order, with the name tie-break that keeps equal-key selections
// deterministic.
func less(aKey float64, aName string, bKey float64, bName string) bool {
	if aKey != bKey {
		return aKey < bKey
	}
	return aName < bName
}

// priorityOf derives a node's deterministic heap priority from its name.
func priorityOf(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// Index is an ordered set of (name, key) entries supporting O(log n)
// upsert and ordered iteration from a key lower bound. Not safe for
// concurrent use, like the cluster manager that owns it.
type Index struct {
	root *node
	// nodes finds an entry's treap node by name. The node carries the
	// entry's current key and its name-derived priority, and belongs to
	// this Index alone, so a re-key can reuse it.
	nodes map[string]*node
}

// New returns an empty index.
func New() *Index {
	return &Index{nodes: make(map[string]*node)}
}

// Len returns the number of entries.
func (ix *Index) Len() int { return len(ix.nodes) }

// Upsert inserts the entry or moves it to a new key, leaving its
// payload as it was. A same-key upsert is a no-op. Moving an existing
// entry re-keys in place: its node is detached and re-inserted under the
// new key with its priority intact, so a re-key allocates nothing and
// does not re-hash the name. The tree shape stays a pure function of the
// entry set either way.
func (ix *Index) Upsert(name string, key float64) {
	ix.upsert(name, key)
}

// UpsertFree is Upsert that also stores the entry's payload. The
// payload is stored even when the key did not move: a server's free
// vector can change while its dominant share does not.
func (ix *Index) UpsertFree(name string, key float64, free resources.Vector) {
	ix.upsert(name, key).free = free
}

func (ix *Index) upsert(name string, key float64) *node {
	nd, ok := ix.nodes[name]
	switch {
	case !ok:
		nd = &node{key: key, name: name, prio: priorityOf(name)}
		ix.nodes[name] = nd
	case nd.key == key:
		return nd
	default:
		ix.root = remove(ix.root, nd.key, name)
		nd.key, nd.left, nd.right = key, nil, nil
	}
	ix.root = insert(ix.root, nd)
	return nd
}

// Delete removes the entry if present.
func (ix *Index) Delete(name string) {
	nd, ok := ix.nodes[name]
	if !ok {
		return
	}
	delete(ix.nodes, name)
	ix.root = remove(ix.root, nd.key, name)
}

// FirstFitting returns the first entry in ascending (key, name) order
// with key >= lower whose payload can hold size (size.FitsIn) — the
// tightest-fit query the cluster manager asks of each priority pool's
// index.
func (ix *Index) FirstFitting(lower float64, size resources.Vector) (name string, key float64, ok bool) {
	if nd := firstFitting(ix.root, lower, &size); nd != nil {
		return nd.name, nd.key, true
	}
	return "", 0, false
}

// DescIter iterates an Index in descending (key, name) order — the
// best-first order of a bound-keyed pressure index, where key is an
// upper bound on any demand's achievable fitness and the scan wants the
// loosest bound first. The iterator owns a reusable explicit stack (the
// right spine of the subtrees still to visit), so steady-state scans
// are allocation-free once the stack has grown to the tree height.
//
// The iterator reads the treap in place: it is valid only while the
// index is not mutated (Upsert/Delete invalidate it). The cluster
// manager guarantees this by syncing dirty servers before a scan and
// never mutating index keys mid-scan — failed placement probes leave
// host state untouched.
type DescIter struct {
	stack []*node
}

// Reset points the iterator at ix's maximum (key, name) entry.
func (it *DescIter) Reset(ix *Index) {
	it.stack = it.stack[:0]
	for n := ix.root; n != nil; n = n.right {
		it.stack = append(it.stack, n)
	}
}

// Peek returns the current entry without advancing.
func (it *DescIter) Peek() (name string, key float64, ok bool) {
	if len(it.stack) == 0 {
		return "", 0, false
	}
	n := it.stack[len(it.stack)-1]
	return n.name, n.key, true
}

// Next advances past the current entry. Popping a node exposes its
// in-order predecessor: the maximum of its left subtree (that subtree's
// right spine is pushed), or the node below it on the stack.
func (it *DescIter) Next() {
	if len(it.stack) == 0 {
		return
	}
	n := it.stack[len(it.stack)-1]
	it.stack = it.stack[:len(it.stack)-1]
	for c := n.left; c != nil; c = c.right {
		it.stack = append(it.stack, c)
	}
}

// insert adds nd below root, rotating to restore the heap property.
func insert(root, nd *node) *node {
	if root == nil {
		return nd
	}
	if less(nd.key, nd.name, root.key, root.name) {
		root.left = insert(root.left, nd)
		if root.left.prio > root.prio {
			root = rotateRight(root)
		}
	} else {
		root.right = insert(root.right, nd)
		if root.right.prio > root.prio {
			root = rotateLeft(root)
		}
	}
	return root
}

// remove unlinks the (key, name) node by rotating it down until it has
// at most one child, which takes its place. The node itself is left
// untouched (it still points at that child), so a caller that re-inserts
// it clears its links first.
func remove(root *node, key float64, name string) *node {
	if root == nil {
		return nil
	}
	switch {
	case key == root.key && name == root.name:
		switch {
		case root.left == nil:
			return root.right
		case root.right == nil:
			return root.left
		case root.left.prio > root.right.prio:
			root = rotateRight(root)
			root.right = remove(root.right, key, name)
		default:
			root = rotateLeft(root)
			root.left = remove(root.left, key, name)
		}
	case less(key, name, root.key, root.name):
		root.left = remove(root.left, key, name)
	default:
		root.right = remove(root.right, key, name)
	}
	return root
}

func rotateRight(n *node) *node {
	l := n.left
	n.left = l.right
	l.right = n
	return l
}

func rotateLeft(n *node) *node {
	r := n.right
	n.right = r.left
	r.left = n
	return r
}

// firstFitting is the surplus probe: an in-order walk from lower that
// prunes every subtree below the bound, stopping at the first in-range
// node whose payload holds size. The probe visits every near-miss ahead
// of the fit (about a hundred per lookup on a packed fleet), which is
// why it reads the node it stands on instead of calling out.
func firstFitting(n *node, lower float64, size *resources.Vector) *node {
	for n != nil {
		if n.key >= lower {
			if nd := firstFitting(n.left, lower, size); nd != nil {
				return nd
			}
			if size.FitsIn(n.free) {
				return n
			}
		}
		n = n.right
	}
	return nil
}
