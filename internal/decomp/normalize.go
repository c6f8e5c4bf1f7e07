package decomp

import "context"

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
	nf, err := DecomposeContext(context.Background(), d.H, w, 0)
	if err != nil {
		// cannot happen: d itself witnesses hw ≤ w (Theorem 5.14)
		panic("decomp: internal error: k-decomp rejected a witnessed width")
	}
	return nf
}
