// Package hypergraph implements hypergraphs and the component machinery of
// Section 3.2 of Gottlob, Leone & Scarcello (JCSS 2002): [V]-adjacency,
// [V]-paths and [V]-components, plus the standard derived graphs (primal /
// Gaifman graph, variable-atom incidence graph, dual graph).
//
// Vertices ("variables" in the paper) and edges ("atoms") are dense integer
// indices with optional names. A query hypergraph H(Q) has one vertex per
// variable and one edge var(A) per atom A.
package hypergraph

import (
	"fmt"
	"sort"
	"strings"

	"hypertree/internal/bitset"
	"hypertree/internal/graph"
)

// Hypergraph is a finite hypergraph. Edges may repeat vertex sets (distinct
// atoms over the same variables) and may be empty only if explicitly added.
type Hypergraph struct {
	vertexNames []string
	vertexIndex map[string]int
	edgeNames   []string
	edges       []bitset.Set // edge -> vertex set
	incidence   [][]int      // vertex -> edges containing it
}

// New returns an empty hypergraph.
func New() *Hypergraph {
	return &Hypergraph{vertexIndex: map[string]int{}}
}

// NumVertices returns the number of vertices.
func (h *Hypergraph) NumVertices() int { return len(h.vertexNames) }

// NumEdges returns the number of edges.
func (h *Hypergraph) NumEdges() int { return len(h.edges) }

// AddVertex returns the index for the named vertex, creating it if needed.
func (h *Hypergraph) AddVertex(name string) int {
	if i, ok := h.vertexIndex[name]; ok {
		return i
	}
	i := len(h.vertexNames)
	h.vertexNames = append(h.vertexNames, name)
	h.vertexIndex[name] = i
	h.incidence = append(h.incidence, nil)
	return i
}

// VertexIndex returns the index of the named vertex and whether it exists.
func (h *Hypergraph) VertexIndex(name string) (int, bool) {
	i, ok := h.vertexIndex[name]
	return i, ok
}

// VertexName returns the name of vertex v.
func (h *Hypergraph) VertexName(v int) string { return h.vertexNames[v] }

// AddEdge appends an edge with the given name over the named vertices and
// returns its index. Vertices are created on demand.
func (h *Hypergraph) AddEdge(name string, vertices ...string) int {
	var set bitset.Set
	for _, v := range vertices {
		set.Add(h.AddVertex(v))
	}
	return h.AddEdgeSet(name, set)
}

// AddEdgeSet appends an edge over an existing vertex set and returns its
// index.
func (h *Hypergraph) AddEdgeSet(name string, vertices bitset.Set) int {
	e := len(h.edges)
	h.edges = append(h.edges, vertices.Clone())
	h.edgeNames = append(h.edgeNames, name)
	vertices.ForEach(func(v int) {
		if v >= len(h.incidence) {
			panic(fmt.Sprintf("hypergraph: edge %q uses unknown vertex %d", name, v))
		}
		h.incidence[v] = append(h.incidence[v], e)
	})
	return e
}

// Edge returns the vertex set of edge e. The returned set must not be
// mutated.
func (h *Hypergraph) Edge(e int) bitset.Set { return h.edges[e] }

// EdgeName returns the name of edge e.
func (h *Hypergraph) EdgeName(e int) string { return h.edgeNames[e] }

// EdgesOf returns the indices of edges containing vertex v. The returned
// slice must not be mutated.
func (h *Hypergraph) EdgesOf(v int) []int { return h.incidence[v] }

// AllVertices returns the set of all vertices.
func (h *Hypergraph) AllVertices() bitset.Set {
	var s bitset.Set
	for i := 0; i < len(h.vertexNames); i++ {
		s.Add(i)
	}
	return s
}

// AllEdges returns the set of all edge indices.
func (h *Hypergraph) AllEdges() bitset.Set {
	var s bitset.Set
	for i := 0; i < len(h.edges); i++ {
		s.Add(i)
	}
	return s
}

// Vars returns the union of the vertex sets of the given edges
// (var(R) for a set R of atoms, in the paper's notation).
func (h *Hypergraph) Vars(edges bitset.Set) bitset.Set {
	var s bitset.Set
	edges.ForEach(func(e int) { s.UnionInPlace(h.edges[e]) })
	return s
}

// VarsOfList is Vars for a slice of edge indices.
func (h *Hypergraph) VarsOfList(edges []int) bitset.Set {
	var s bitset.Set
	for _, e := range edges {
		s.UnionInPlace(h.edges[e])
	}
	return s
}

// VertexNames maps a vertex set to sorted names (for rendering and tests).
func (h *Hypergraph) VertexNames(s bitset.Set) []string {
	out := make([]string, 0, s.Len())
	s.ForEach(func(v int) { out = append(out, h.vertexNames[v]) })
	sort.Strings(out)
	return out
}

// EdgeNames maps an edge set to sorted names.
func (h *Hypergraph) EdgeNames(s bitset.Set) []string {
	out := make([]string, 0, s.Len())
	s.ForEach(func(e int) { out = append(out, h.edgeNames[e]) })
	sort.Strings(out)
	return out
}

// String renders the hypergraph as one line per edge.
func (h *Hypergraph) String() string {
	var b strings.Builder
	for e := range h.edges {
		fmt.Fprintf(&b, "%s(%s)\n", h.edgeNames[e], strings.Join(h.namesInEdgeOrder(e), ","))
	}
	return b.String()
}

func (h *Hypergraph) namesInEdgeOrder(e int) []string {
	var out []string
	h.edges[e].ForEach(func(v int) { out = append(out, h.vertexNames[v]) })
	return out
}

// Component is a [V]-component of the hypergraph: a maximal [V]-connected
// set of vertices disjoint from V, together with the edges that meet it
// (atoms(C) in the paper's notation).
type Component struct {
	Vertices bitset.Set
	Edges    []int // edges e with var(e) ∩ Vertices ≠ ∅, increasing
}

// ComponentsAvoiding computes the [V]-components for the separator set V
// (Section 3.2). Two vertices outside V are [V]-adjacent when some edge
// contains both; components are the classes of the transitive closure.
// Components are returned ordered by their smallest vertex.
func (h *Hypergraph) ComponentsAvoiding(sep bitset.Set) []Component {
	return h.ComponentsWithin(sep, h.AllVertices())
}

// ComponentsWithin returns the [V]-components whose vertex sets are subsets
// of the given region (used by the decomposition search, which recurses only
// on components contained in the parent component, cf. Step 4 of k-decomp),
// ordered by their smallest vertex. Only components meeting the region are
// explored; one that leaves it is dropped.
func (h *Hypergraph) ComponentsWithin(sep, region bitset.Set) []Component {
	seen := bitset.New(h.NumVertices())
	edgeSeen := make([]bool, h.NumEdges())
	var comps []Component
	region.ForEach(func(start int) {
		if seen.Has(start) || sep.Has(start) {
			return
		}
		var verts bitset.Set
		var compEdges []int
		escaped := false
		stack := []int{start}
		seen.Add(start)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			verts.Add(v)
			escaped = escaped || !region.Has(v)
			for _, e := range h.incidence[v] {
				if edgeSeen[e] {
					continue
				}
				edgeSeen[e] = true
				compEdges = append(compEdges, e)
				h.edges[e].ForEach(func(u int) {
					if !seen.Has(u) && !sep.Has(u) {
						seen.Add(u)
						stack = append(stack, u)
					}
				})
			}
		}
		if !escaped {
			sort.Ints(compEdges)
			comps = append(comps, Component{Vertices: verts, Edges: compEdges})
		}
	})
	return comps
}

// Frontier returns var(atoms(C)) ∩ sep: the separator vertices adjacent to
// the component. In the paper's Step 2 of k-decomp, the guessed set S must
// satisfy var(P) ∩ var(R) ⊆ var(S) for every P ∈ atoms(C), which is
// equivalent to Frontier(C, var(R)) ⊆ var(S).
func (h *Hypergraph) Frontier(c Component, sep bitset.Set) bitset.Set {
	var f bitset.Set
	for _, e := range c.Edges {
		f.UnionInPlace(h.edges[e].Intersect(sep))
	}
	return f
}

// PrimalGraph returns the Gaifman graph G(Q): vertices are the hypergraph's
// vertices; two vertices are adjacent iff they co-occur in some edge.
func (h *Hypergraph) PrimalGraph() *graph.Graph {
	g := graph.New(h.NumVertices())
	for _, edge := range h.edges {
		elems := edge.Elems()
		for i := 0; i < len(elems); i++ {
			for j := i + 1; j < len(elems); j++ {
				g.AddEdge(elems[i], elems[j])
			}
		}
	}
	return g
}

// IncidenceGraph returns the variable-atom incidence graph VAIG(Q): a
// bipartite graph whose vertices 0..NumVertices()-1 are the variables and
// NumVertices()..NumVertices()+NumEdges()-1 are the atoms.
func (h *Hypergraph) IncidenceGraph() *graph.Graph {
	nv := h.NumVertices()
	g := graph.New(nv + h.NumEdges())
	for e, edge := range h.edges {
		edge.ForEach(func(v int) { g.AddEdge(v, nv+e) })
	}
	return g
}

// DualGraph returns the graph on edges where two edges are adjacent iff
// they share a vertex.
func (h *Hypergraph) DualGraph() *graph.Graph {
	g := graph.New(h.NumEdges())
	for i := 0; i < h.NumEdges(); i++ {
		for j := i + 1; j < h.NumEdges(); j++ {
			if h.edges[i].Intersects(h.edges[j]) {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// Connected reports whether the hypergraph is connected (every pair of
// vertices joined by an [∅]-path).
func (h *Hypergraph) Connected() bool {
	return len(h.ComponentsAvoiding(nil)) <= 1
}
