package capindex

// Read probes the tests check the index with; the cluster manager only
// upserts, deletes and runs the fitting probes.

// Key returns the entry's current key and whether it is present.
func (ix *Index) Key(name string) (float64, bool) {
	nd, ok := ix.nodes[name]
	if !ok {
		return 0, false
	}
	return nd.key, true
}

// AscendFrom visits entries with key >= lower in ascending (key, name)
// order until visit returns false. Subtrees entirely below the bound are
// pruned, so a query that stops after k visits costs O(log n + k).
func (ix *Index) AscendFrom(lower float64, visit func(name string, key float64) bool) {
	ascend(ix.root, lower, visit)
}

// ascend reports false once visit asked to stop.
func ascend(n *node, lower float64, visit func(string, float64) bool) bool {
	if n == nil {
		return true
	}
	if n.key >= lower {
		// The left subtree may straddle the bound; the node itself is in
		// range.
		if !ascend(n.left, lower, visit) {
			return false
		}
		if !visit(n.name, n.key) {
			return false
		}
	}
	// Everything in the left subtree is <= this node, so when the node is
	// below the bound only the right subtree can still qualify.
	return ascend(n.right, lower, visit)
}

// Min returns the smallest (key, name) entry.
func (ix *Index) Min() (name string, key float64, ok bool) {
	n := ix.root
	if n == nil {
		return "", 0, false
	}
	for n.left != nil {
		n = n.left
	}
	return n.name, n.key, true
}
