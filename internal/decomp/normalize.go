package decomp

// Normalize returns a normal-form decomposition (Definition 5.1) of width at
// most the width of d, realising Theorem 5.4 constructively: since d proves
// hw(H) ≤ width(d), re-running the k-decomp search with k = width(d) yields
// a witness tree, which is an NF decomposition of width ≤ k (Lemma 5.13).
// It panics if d is invalid (callers should Validate first).
func Normalize(d *Decomposition) *Decomposition {
	if err := d.Validate(); err != nil {
		panic("decomp: Normalize on invalid decomposition: " + err.Error())
	}
	w := d.Width()
	if w == 0 {
		return &Decomposition{H: d.H}
	}
	nf := Decompose(d.H, w)
	if nf == nil {
		// cannot happen: d itself witnesses hw ≤ w (Theorem 5.14)
		panic("decomp: internal error: k-decomp rejected a witnessed width")
	}
	return nf
}

// Splice removes redundant nodes whose χ label is contained in the parent's
// (the transformation of Fig. 9 for children violating NF condition 2 while
// satisfying condition 1): such a node is deleted and its children are
// re-attached to the parent. This is a cheap cleanup that preserves validity
// and never increases the width; it does not by itself establish full normal
// form (use Normalize for that).
func Splice(d *Decomposition) *Decomposition {
	out := d.Clone()
	if out.Root == nil {
		return out
	}
	var visit func(n *Node)
	visit = func(n *Node) {
		var kept []*Node
		queue := append([]*Node(nil), n.Children...)
		for len(queue) > 0 {
			c := queue[0]
			queue = queue[1:]
			if c.Chi.SubsetOf(n.Chi) {
				// Deleting c is sound (Fig. 9): every variable of χ(c) is
				// already in χ(n), so re-attaching c's children preserves
				// conditions 1–4. The grandchildren re-enter the queue since
				// they may be redundant below n as well.
				queue = append(queue, c.Children...)
				continue
			}
			kept = append(kept, c)
		}
		n.Children = kept
		for _, c := range kept {
			visit(c)
		}
	}
	visit(out.Root)
	return out
}
