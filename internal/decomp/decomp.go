// Package decomp implements hypertree decompositions, the central
// contribution of Gottlob, Leone & Scarcello (JCSS 2002): the decomposition
// type with its Definition 4.1 validator, complete decompositions
// (Definition 4.2, Lemma 4.4), the normal form of Definition 5.1, and the
// k-decomp decision/construction algorithm of Section 5 in a deterministic,
// memoised form (with an optional parallel search exercising the paper's
// LOGCFL parallelizability claim).
package decomp

import (
	"fmt"
	"strings"

	"hypertree/internal/bitset"
	"hypertree/internal/hypergraph"
)

// Node is a vertex of a hypertree decomposition, carrying the two labels of
// Definition 4.1: Chi (χ, a set of variables) and Lambda (λ, a set of edge
// indices of the underlying hypergraph). Weights optionally attaches
// fractional λ weights (edge index → weight) for nodes produced by a
// fractional decomposer (internal/fhd): its support must be exactly Lambda,
// so evaluation — which needs only the integral support sets — runs
// unchanged while FractionalWidth can drop below Width. Weights is nil on
// integral decompositions.
type Node struct {
	Chi      bitset.Set
	Lambda   bitset.Set
	Weights  map[int]float64
	Children []*Node
}

// Decomposition is a rooted hypertree ⟨T, χ, λ⟩ for a hypergraph.
type Decomposition struct {
	H    *hypergraph.Hypergraph
	Root *Node
}

// FromJoinTree returns the width-1 hypertree decomposition a join tree of h
// is (Theorem 4.5): one node ⟨χ = e, λ = {e}⟩ per edge, arranged as the
// tree — parent[e] is the parent edge of e, negative at the root. The
// connectedness condition of the join tree is condition 2 of Definition
// 4.1, and the other three hold by construction. A hypergraph without
// edges has the empty decomposition.
func FromJoinTree(h *hypergraph.Hypergraph, parent []int) *Decomposition {
	nodes := make([]*Node, len(parent))
	for e := range parent {
		nodes[e] = &Node{Chi: h.Edge(e).Clone(), Lambda: bitset.Of(e)}
	}
	d := &Decomposition{H: h}
	for e, p := range parent {
		if p < 0 {
			d.Root = nodes[e]
		} else {
			nodes[p].Children = append(nodes[p].Children, nodes[e])
		}
	}
	return d
}

// Nodes returns all nodes in pre-order.
func (d *Decomposition) Nodes() []*Node {
	var out []*Node
	var visit func(*Node)
	visit = func(n *Node) {
		out = append(out, n)
		for _, c := range n.Children {
			visit(c)
		}
	}
	if d.Root != nil {
		visit(d.Root)
	}
	return out
}

// Width returns max over nodes of |λ(p)| (Definition 4.1).
func (d *Decomposition) Width() int {
	w := 0
	for _, n := range d.Nodes() {
		if l := n.Lambda.Len(); l > w {
			w = l
		}
	}
	return w
}

// NumNodes returns the number of tree nodes.
func (d *Decomposition) NumNodes() int { return len(d.Nodes()) }

// FractionalWidth returns the width of the decomposition under its
// fractional λ weights: the maximum over nodes of Σ_e w(e), where a node
// without Weights counts every λ edge at weight 1. On integral
// decompositions this equals float64(Width()); decompositions produced by
// the fractional engine (internal/fhd) can be strictly below it — the
// fhw ≤ ghw ≤ hw hierarchy of Fischl, Gottlob & Pichler.
func (d *Decomposition) FractionalWidth() float64 {
	w := 0.0
	for _, n := range d.Nodes() {
		var nw float64
		if n.Weights != nil {
			for _, v := range n.Weights {
				nw += v
			}
		} else {
			nw = float64(n.Lambda.Len())
		}
		if nw > w {
			w = nw
		}
	}
	return w
}

// FracEps is the tolerance of the fractional validator: the LP solver
// prices covers in epsilon-guarded floats, so cover constraints are checked
// up to this slack.
const FracEps = 1e-6

// ValidateFractional checks the fractional reading of Definition 4.1 — the
// conditions of a fractional hypertree decomposition (Fischl–Gottlob–
// Pichler) plus the structural invariants the evaluator relies on:
//
//  1. every edge is covered by some χ label, and every variable induces a
//     connected subtree (conditions 1–2, exactly as for a GHD);
//  2. integral support: each node's λ still satisfies χ(p) ⊆ var(λ(p)), so
//     the Lemma 4.6 evaluation over the support sets applies unchanged;
//  3. fractional cover: at each weighted node, every χ vertex receives
//     total weight ≥ 1 − FracEps from the λ edges containing it, all
//     weights are positive, and the weight support is exactly λ.
//
// Nodes without Weights are read as every-λ-edge-at-weight-1 and pass
// whenever the GHD conditions do.
func (d *Decomposition) ValidateFractional() error {
	if err := d.ValidateGHD(); err != nil {
		return err
	}
	h := d.H
	for _, n := range d.Nodes() {
		if n.Weights == nil {
			continue
		}
		support := bitset.Set{}
		for e, w := range n.Weights {
			if w <= 0 {
				return fmt.Errorf("decomp: fractional condition violated: non-positive weight %g on edge %s", w, h.EdgeName(e))
			}
			support.Add(e)
		}
		if !support.Equal(n.Lambda) {
			return fmt.Errorf("decomp: fractional condition violated: weight support %v differs from λ=%v",
				h.EdgeNames(support), h.EdgeNames(n.Lambda))
		}
		var err error
		n.Chi.ForEach(func(v int) {
			if err != nil {
				return
			}
			total := 0.0
			for e, w := range n.Weights {
				if h.Edge(e).Has(v) {
					total += w
				}
			}
			if total < 1-FracEps {
				err = fmt.Errorf("decomp: fractional condition violated: χ vertex %s covered with weight %g < 1",
					h.VertexName(v), total)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// chiSubtree returns χ(T_p): the union of χ labels in the subtree rooted at n.
func chiSubtree(n *Node) bitset.Set {
	s := n.Chi.Clone()
	for _, c := range n.Children {
		s.UnionInPlace(chiSubtree(c))
	}
	return s
}

// Validate checks all four conditions of Definition 4.1 and returns a
// descriptive error for the first violation found.
//
//  1. for each edge e there is a node p with var(e) ⊆ χ(p);
//  2. for each variable Y, {p : Y ∈ χ(p)} induces a connected subtree;
//  3. for each node p, χ(p) ⊆ var(λ(p));
//  4. for each node p, var(λ(p)) ∩ χ(T_p) ⊆ χ(p).
func (d *Decomposition) Validate() error {
	if err := d.ValidateGHD(); err != nil {
		return err
	}
	if d.Root == nil {
		return nil
	}
	// Condition 4 — the "special condition" that distinguishes hypertree
	// decompositions from generalized ones.
	h := d.H
	var check4 func(n *Node) error
	check4 = func(n *Node) error {
		lv := h.Vars(n.Lambda)
		if bad := lv.Intersect(chiSubtree(n)).Diff(n.Chi); !bad.Empty() {
			return fmt.Errorf("decomp: condition 4 violated at node χ=%v λ=%v: vars %v reappear below",
				h.VertexNames(n.Chi), h.EdgeNames(n.Lambda), h.VertexNames(bad))
		}
		for _, c := range n.Children {
			if err := check4(c); err != nil {
				return err
			}
		}
		return nil
	}
	return check4(d.Root)
}

// ValidateGHD checks conditions 1–3 of Definition 4.1 only — the definition
// of a generalized hypertree decomposition (GHD). Dropping the descendant
// condition (4) does not affect evaluation: Lemma 4.6 needs only the cover
// conditions, so a GHD is evaluated through exactly the same machinery.
// Heuristic decomposers (internal/ghd) produce GHDs, not HDs.
func (d *Decomposition) ValidateGHD() error {
	if d.Root == nil {
		if d.H.NumEdges() == 0 {
			return nil
		}
		return fmt.Errorf("decomp: empty decomposition for non-empty hypergraph")
	}
	h := d.H
	nodes := d.Nodes()

	// Condition 1.
	for e := 0; e < h.NumEdges(); e++ {
		covered := false
		for _, n := range nodes {
			if h.Edge(e).SubsetOf(n.Chi) {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("decomp: condition 1 violated: edge %s covered by no χ label", h.EdgeName(e))
		}
	}

	// Condition 2: for each variable, the nodes containing it must form one
	// connected block. We do a single DFS tracking, per variable, whether
	// its block was exited and re-entered.
	const (
		unseen = iota
		open
		closed
	)
	state := make([]int, h.NumVertices())
	var walk func(n *Node, onPath bitset.Set) error
	walk = func(n *Node, parentChi bitset.Set) error {
		var err error
		n.Chi.ForEach(func(v int) {
			switch state[v] {
			case unseen:
				state[v] = open
			case open:
				if !parentChi.Has(v) {
					// v was seen on another branch: disconnected.
					if err == nil {
						err = fmt.Errorf("decomp: condition 2 violated: variable %s occurs in disconnected parts", h.VertexName(v))
					}
				}
			case closed:
				if err == nil {
					err = fmt.Errorf("decomp: condition 2 violated: variable %s re-enters after leaving", h.VertexName(v))
				}
			}
		})
		if err != nil {
			return err
		}
		for _, c := range n.Children {
			if err := walk(c, n.Chi); err != nil {
				return err
			}
			// variables open in c's subtree but not in n.Chi are closed now
			sub := chiSubtree(c)
			sub.ForEach(func(v int) {
				if !n.Chi.Has(v) && state[v] == open {
					state[v] = closed
				}
			})
		}
		return nil
	}
	if err := walk(d.Root, nil); err != nil {
		return err
	}

	// Condition 3.
	var check3 func(n *Node) error
	check3 = func(n *Node) error {
		if !n.Chi.SubsetOf(h.Vars(n.Lambda)) {
			return fmt.Errorf("decomp: condition 3 violated: χ ⊄ var(λ) at node χ=%v λ=%v",
				h.VertexNames(n.Chi), h.EdgeNames(n.Lambda))
		}
		for _, c := range n.Children {
			if err := check3(c); err != nil {
				return err
			}
		}
		return nil
	}
	return check3(d.Root)
}

// IsComplete reports whether the decomposition is complete (Definition 4.2):
// every edge e has a node p with var(e) ⊆ χ(p) and e ∈ λ(p).
func (d *Decomposition) IsComplete() bool {
	h := d.H
	nodes := d.Nodes()
	for e := 0; e < h.NumEdges(); e++ {
		ok := false
		for _, n := range nodes {
			if n.Lambda.Has(e) && h.Edge(e).SubsetOf(n.Chi) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Complete returns a complete decomposition per Lemma 4.4: for every edge e
// lacking a node with e ∈ λ(p) and var(e) ⊆ χ(p), a fresh child
// ⟨χ=var(e), λ={e}⟩ is attached below some node covering var(e). The
// original decomposition is not modified; shared label sets are cloned.
func (d *Decomposition) Complete() *Decomposition {
	h := d.H
	clone := d.Clone()
	nodes := clone.Nodes()
	for e := 0; e < h.NumEdges(); e++ {
		placed := false
		var host *Node
		for _, n := range nodes {
			if h.Edge(e).SubsetOf(n.Chi) {
				if host == nil {
					host = n
				}
				if n.Lambda.Has(e) {
					placed = true
					break
				}
			}
		}
		if placed {
			continue
		}
		if host == nil {
			// invalid decomposition; leave edge unplaced (Validate reports it)
			continue
		}
		child := &Node{Chi: h.Edge(e).Clone(), Lambda: bitset.Of(e)}
		host.Children = append(host.Children, child)
		nodes = append(nodes, child)
	}
	return clone
}

// Clone returns a deep copy of the decomposition tree (labels and
// weights; the hypergraph is shared).
func (d *Decomposition) Clone() *Decomposition {
	var cp func(n *Node) *Node
	cp = func(n *Node) *Node {
		m := &Node{Chi: n.Chi.Clone(), Lambda: n.Lambda.Clone()}
		if n.Weights != nil {
			m.Weights = make(map[int]float64, len(n.Weights))
			for e, w := range n.Weights {
				m.Weights[e] = w
			}
		}
		for _, c := range n.Children {
			m.Children = append(m.Children, cp(c))
		}
		return m
	}
	out := &Decomposition{H: d.H}
	if d.Root != nil {
		out.Root = cp(d.Root)
	}
	return out
}

// CheckNormalForm verifies the three conditions of Definition 5.1 for every
// parent r and child s:
//
//  1. there is exactly one [χ(r)]-component C_r with
//     χ(T_s) = C_r ∪ (χ(s) ∩ χ(r));
//  2. χ(s) ∩ C_r ≠ ∅;
//  3. var(λ(s)) ∩ χ(r) ⊆ χ(s).
func (d *Decomposition) CheckNormalForm() error {
	if d.Root == nil {
		return nil
	}
	h := d.H
	var visit func(r *Node) error
	visit = func(r *Node) error {
		comps := h.ComponentsAvoiding(r.Chi)
		for _, s := range r.Children {
			chiTs := chiSubtree(s)
			var match *hypergraph.Component
			for i := range comps {
				want := comps[i].Vertices.Union(s.Chi.Intersect(r.Chi))
				if chiTs.Equal(want) {
					if match != nil {
						return fmt.Errorf("decomp: NF condition 1: two matching components below χ=%v", h.VertexNames(r.Chi))
					}
					match = &comps[i]
				}
			}
			if match == nil {
				return fmt.Errorf("decomp: NF condition 1: no [χ(r)]-component matches subtree of child χ=%v", h.VertexNames(s.Chi))
			}
			if !s.Chi.Intersects(match.Vertices) {
				return fmt.Errorf("decomp: NF condition 2: χ(s)=%v misses its component", h.VertexNames(s.Chi))
			}
			if !h.Vars(s.Lambda).Intersect(r.Chi).SubsetOf(s.Chi) {
				return fmt.Errorf("decomp: NF condition 3 violated at child χ=%v", h.VertexNames(s.Chi))
			}
			if err := visit(s); err != nil {
				return err
			}
		}
		return nil
	}
	return visit(d.Root)
}

// String renders the decomposition as an indented tree of χ / λ labels.
func (d *Decomposition) String() string {
	if d.Root == nil {
		return "(empty decomposition)\n"
	}
	var b strings.Builder
	var visit func(n *Node, depth int)
	visit = func(n *Node, depth int) {
		fmt.Fprintf(&b, "%sχ={%s} λ={%s}\n",
			strings.Repeat("  ", depth),
			strings.Join(d.H.VertexNames(n.Chi), ","),
			strings.Join(d.H.EdgeNames(n.Lambda), ","))
		for _, c := range n.Children {
			visit(c, depth+1)
		}
	}
	visit(d.Root, 0)
	return b.String()
}

// DOT renders the decomposition in Graphviz format.
func (d *Decomposition) DOT() string {
	var b strings.Builder
	b.WriteString("digraph hypertree {\n  node [shape=box];\n")
	id := 0
	var visit func(n *Node) int
	visit = func(n *Node) int {
		my := id
		id++
		fmt.Fprintf(&b, "  n%d [label=\"χ: %s\\nλ: %s\"];\n", my,
			strings.Join(d.H.VertexNames(n.Chi), ","),
			strings.Join(d.H.EdgeNames(n.Lambda), ","))
		for _, c := range n.Children {
			cid := visit(c)
			fmt.Fprintf(&b, "  n%d -> n%d;\n", my, cid)
		}
		return my
	}
	if d.Root != nil {
		visit(d.Root)
	}
	b.WriteString("}\n")
	return b.String()
}
