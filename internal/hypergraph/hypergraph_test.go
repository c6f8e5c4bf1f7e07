package hypergraph

import (
	"fmt"
	"math/rand"
	"testing"

	"hypertree/internal/bitset"
)

// q5 builds the hypergraph of the running-example query Q5 (Example 3.5):
//
//	a(S,X,X',C,F), b(S,Y,Y',C',F'), c(C,C',Z), d(X,Z), e(Y,Z),
//	f(F,F',Z'), g(X',Z'), h(Y',Z'), j(J,X,Y,X',Y')
func q5() *Hypergraph {
	h := New()
	h.AddEdge("a", "S", "X", "X1", "C", "F")
	h.AddEdge("b", "S", "Y", "Y1", "C1", "F1")
	h.AddEdge("c", "C", "C1", "Z")
	h.AddEdge("d", "X", "Z")
	h.AddEdge("e", "Y", "Z")
	h.AddEdge("f", "F", "F1", "Z1")
	h.AddEdge("g", "X1", "Z1")
	h.AddEdge("h", "Y1", "Z1")
	h.AddEdge("j", "J", "X", "Y", "X1", "Y1")
	return h
}

func vset(h *Hypergraph, names ...string) bitset.Set {
	var s bitset.Set
	for _, n := range names {
		i, ok := h.VertexIndex(n)
		if !ok {
			panic("unknown vertex " + n)
		}
		s.Add(i)
	}
	return s
}

func TestBasicConstruction(t *testing.T) {
	h := q5()
	if h.NumEdges() != 9 {
		t.Fatalf("NumEdges = %d, want 9", h.NumEdges())
	}
	// variables: S X X1 C F Y Y1 C1 F1 Z Z1 J = 12
	if h.NumVertices() != 12 {
		t.Fatalf("NumVertices = %d, want 12", h.NumVertices())
	}
	if h.EdgeName(0) != "a" || h.VertexName(0) != "S" {
		t.Fatalf("names wrong: %q %q", h.EdgeName(0), h.VertexName(0))
	}
	z, ok := h.VertexIndex("Z")
	if !ok {
		t.Fatalf("Z missing")
	}
	if got := len(h.EdgesOf(z)); got != 3 { // c, d, e
		t.Fatalf("EdgesOf(Z) = %d, want 3", got)
	}
	if !h.Connected() {
		t.Fatalf("Q5 hypergraph is connected")
	}
}

func TestVars(t *testing.T) {
	h := q5()
	got := h.Vars(bitset.Of(2, 3)) // c(C,C1,Z), d(X,Z)
	want := vset(h, "C", "C1", "Z", "X")
	if !got.Equal(want) {
		t.Fatalf("Vars = %v, want %v", h.VertexNames(got), h.VertexNames(want))
	}
	if !h.VarsOfList([]int{2, 3}).Equal(want) {
		t.Fatalf("VarsOfList disagrees with Vars")
	}
}

// The paper (after Proposition 3.6): with var(p0) = {S,X,X',C,F,Y,Y',C',F'}
// fixed, there are exactly three [var(p0)]-components: {J}, {Z}, {Z'}.
func TestComponentsOfQ5RootSeparator(t *testing.T) {
	h := q5()
	sep := vset(h, "S", "X", "X1", "C", "F", "Y", "Y1", "C1", "F1")
	comps := h.ComponentsAvoiding(sep)
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	wantVerts := []bitset.Set{vset(h, "C"), vset(h, "Z"), vset(h, "Z1")}
	_ = wantVerts
	var names [][]string
	for _, c := range comps {
		names = append(names, h.VertexNames(c.Vertices))
	}
	found := map[string]bool{}
	for _, c := range comps {
		if c.Vertices.Len() != 1 {
			t.Fatalf("component %v not a singleton", h.VertexNames(c.Vertices))
		}
		found[h.VertexNames(c.Vertices)[0]] = true
	}
	for _, v := range []string{"J", "Z", "Z1"} {
		if !found[v] {
			t.Fatalf("missing component {%s}; got %v", v, names)
		}
	}
}

func TestComponentEdges(t *testing.T) {
	h := q5()
	sep := vset(h, "S", "X", "X1", "C", "F", "Y", "Y1", "C1", "F1")
	for _, c := range h.ComponentsAvoiding(sep) {
		switch h.VertexNames(c.Vertices)[0] {
		case "J":
			if len(c.Edges) != 1 || h.EdgeName(c.Edges[0]) != "j" {
				t.Errorf("atoms({J}) = %v, want {j}", c.Edges)
			}
		case "Z":
			if len(c.Edges) != 3 { // c, d, e
				t.Errorf("atoms({Z}) has %d edges, want 3", len(c.Edges))
			}
		case "Z1":
			if len(c.Edges) != 3 { // f, g, h
				t.Errorf("atoms({Z'}) has %d edges, want 3", len(c.Edges))
			}
		}
	}
}

func TestFrontier(t *testing.T) {
	h := q5()
	sep := vset(h, "S", "X", "X1", "C", "F", "Y", "Y1", "C1", "F1")
	for _, c := range h.ComponentsAvoiding(sep) {
		f := h.Frontier(c, sep)
		switch h.VertexNames(c.Vertices)[0] {
		case "J":
			if !f.Equal(vset(h, "X", "Y", "X1", "Y1")) {
				t.Errorf("frontier({J}) = %v", h.VertexNames(f))
			}
		case "Z":
			if !f.Equal(vset(h, "C", "C1", "X", "Y")) {
				t.Errorf("frontier({Z}) = %v", h.VertexNames(f))
			}
		case "Z1":
			if !f.Equal(vset(h, "F", "F1", "X1", "Y1")) {
				t.Errorf("frontier({Z'}) = %v", h.VertexNames(f))
			}
		}
	}
}

func TestComponentsEmptySeparator(t *testing.T) {
	h := q5()
	comps := h.ComponentsAvoiding(nil)
	if len(comps) != 1 {
		t.Fatalf("connected hypergraph should have one [∅]-component")
	}
	if comps[0].Vertices.Len() != h.NumVertices() {
		t.Fatalf("the single component must cover all vertices")
	}
	if len(comps[0].Edges) != h.NumEdges() {
		t.Fatalf("the single component must touch all edges")
	}
}

func TestComponentsWithin(t *testing.T) {
	h := q5()
	sepA := vset(h, "S", "X", "X1", "C", "F") // var(a)
	compsA := h.ComponentsAvoiding(sepA)
	if len(compsA) != 1 {
		t.Fatalf("fixing var(a) leaves one component, got %d", len(compsA))
	}
	region := compsA[0].Vertices
	// Now split with var(a) ∪ var(b).
	sepAB := sepA.Union(vset(h, "Y", "Y1", "C1", "F1"))
	within := h.ComponentsWithin(sepAB, region)
	if len(within) != 3 {
		t.Fatalf("ComponentsWithin = %d comps, want 3", len(within))
	}
}

func TestDerivedGraphs(t *testing.T) {
	h := New()
	h.AddEdge("r", "X", "Y")
	h.AddEdge("s", "Y", "Z")
	h.AddEdge("t", "Z", "X")

	pg := h.PrimalGraph()
	if pg.NumEdges() != 3 {
		t.Errorf("primal graph of triangle: %d edges, want 3", pg.NumEdges())
	}
	ig := h.IncidenceGraph()
	if ig.N() != 6 || ig.NumEdges() != 6 {
		t.Errorf("incidence graph: n=%d m=%d, want 6/6", ig.N(), ig.NumEdges())
	}
	dg := h.DualGraph()
	if dg.NumEdges() != 3 {
		t.Errorf("dual graph: %d edges, want 3", dg.NumEdges())
	}
}

func TestComponentsPartitionProperty(t *testing.T) {
	// Property (Lemma 5.5 flavor): for random hypergraphs and random
	// separators V, the [V]-components partition var(H) − V, and each edge
	// not fully inside V belongs to atoms(C) of exactly one component
	// containing its non-V vertices... every non-V vertex is in exactly one
	// component.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 80; trial++ {
		h := randomHypergraph(rng, 2+rng.Intn(10), 1+rng.Intn(12), 1+rng.Intn(4))
		var sep bitset.Set
		for v := 0; v < h.NumVertices(); v++ {
			if rng.Intn(3) == 0 {
				sep.Add(v)
			}
		}
		comps := h.ComponentsAvoiding(sep)
		var union bitset.Set
		for i, c := range comps {
			if c.Vertices.Intersects(sep) {
				t.Fatalf("component intersects separator")
			}
			if c.Vertices.Intersects(union) {
				t.Fatalf("components overlap")
			}
			union.UnionInPlace(c.Vertices)
			// atoms(C) are exactly the edges meeting C
			for e := 0; e < h.NumEdges(); e++ {
				meets := h.Edge(e).Intersects(c.Vertices)
				inList := false
				for _, ce := range c.Edges {
					if ce == e {
						inList = true
					}
				}
				if meets != inList {
					t.Fatalf("trial %d comp %d: edge %d meets=%v inList=%v", trial, i, e, meets, inList)
				}
			}
		}
		want := h.AllVertices().Diff(sep)
		if !union.Equal(want) {
			t.Fatalf("components do not partition var(H)−V: %v vs %v", union, want)
		}
	}
}

// ComponentsWithin explores only the components meeting its region; it
// must return exactly ComponentsAvoiding's components inside the region, in
// the same order, and ComponentsAvoiding must match a union-find oracle
// (which also checks that components are maximal and ordered by their
// smallest vertex). Regions are random vertex sets, unions of random
// components (possibly with a stray vertex that makes another component
// escape), and var(H).
func TestComponentsWithinFiltersComponentsAvoiding(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		h := randomHypergraph(rng, 2+rng.Intn(12), 1+rng.Intn(14), 1+rng.Intn(4))
		var sep bitset.Set
		for v := 0; v < h.NumVertices(); v++ {
			if rng.Intn(3) == 0 {
				sep.Add(v)
			}
		}
		all := h.ComponentsAvoiding(sep)
		if got, want := componentsString(all), componentsString(naiveComponents(h, sep)); got != want {
			t.Fatalf("trial %d: ComponentsAvoiding = %s, union-find oracle %s", trial, got, want)
		}
		var region bitset.Set
		switch trial % 3 {
		case 0:
			for v := 0; v < h.NumVertices(); v++ {
				if rng.Intn(2) == 0 {
					region.Add(v)
				}
			}
		case 1:
			for _, c := range all {
				if rng.Intn(2) == 0 {
					region.UnionInPlace(c.Vertices)
				}
			}
			if rng.Intn(2) == 0 {
				region.Add(rng.Intn(h.NumVertices()))
			}
		default:
			region = h.AllVertices()
		}
		var want []Component
		for _, c := range all {
			if c.Vertices.SubsetOf(region) {
				want = append(want, c)
			}
		}
		if got := h.ComponentsWithin(sep, region); componentsString(got) != componentsString(want) {
			t.Fatalf("trial %d, region %v: ComponentsWithin = %s, filtered ComponentsAvoiding %s", trial, region, componentsString(got), componentsString(want))
		}
	}
}

// naiveComponents is the [sep]-components by union-find over the edges,
// ordered by smallest vertex, each with the edges meeting it.
func naiveComponents(h *Hypergraph, sep bitset.Set) []Component {
	parent := make([]int, h.NumVertices())
	for v := range parent {
		parent[v] = v
	}
	var find func(int) int
	find = func(v int) int {
		if parent[v] != v {
			parent[v] = find(parent[v])
		}
		return parent[v]
	}
	for e := 0; e < h.NumEdges(); e++ {
		free := h.Edge(e).Diff(sep).Elems()
		for _, v := range free[min(1, len(free)):] {
			parent[find(v)] = find(free[0])
		}
	}
	var comps []Component
	index := map[int]int{} // root → position in comps, first seen at the smallest vertex
	for v := 0; v < h.NumVertices(); v++ {
		if sep.Has(v) {
			continue
		}
		i, ok := index[find(v)]
		if !ok {
			i = len(comps)
			index[find(v)] = i
			comps = append(comps, Component{})
		}
		comps[i].Vertices.Add(v)
	}
	for i := range comps {
		for e := 0; e < h.NumEdges(); e++ {
			if h.Edge(e).Intersects(comps[i].Vertices) {
				comps[i].Edges = append(comps[i].Edges, e)
			}
		}
	}
	return comps
}

func componentsString(comps []Component) string {
	out := ""
	for _, c := range comps {
		out += fmt.Sprintf("{%v %v}", c.Vertices.Elems(), c.Edges)
	}
	return out
}

func randomHypergraph(rng *rand.Rand, nv, ne, maxArity int) *Hypergraph {
	h := New()
	for v := 0; v < nv; v++ {
		h.AddVertex(vertexName(v))
	}
	for e := 0; e < ne; e++ {
		var s bitset.Set
		arity := 1 + rng.Intn(maxArity)
		for i := 0; i < arity; i++ {
			s.Add(rng.Intn(nv))
		}
		h.AddEdgeSet(edgeName(e), s)
	}
	return h
}

func vertexName(v int) string { return "v" + string(rune('A'+v%26)) + itoa(v/26) }
func edgeName(e int) string   { return "e" + itoa(e) }

func itoa(i int) string {
	if i == 0 {
		return ""
	}
	digits := ""
	for i > 0 {
		digits = string(rune('0'+i%10)) + digits
		i /= 10
	}
	return digits
}

func TestAddEdgeSetPanicsOnUnknownVertex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	h := New()
	h.AddEdgeSet("bad", bitset.Of(3))
}
