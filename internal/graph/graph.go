// Package graph provides simple undirected graphs and the classical
// algorithms needed as substrates by the decomposition methods: connectivity,
// articulation points, biconnected components, and spanning trees.
//
// Vertices are dense integers 0..N-1. Graphs are represented both as
// adjacency bitsets (fast set algebra for elimination-order algorithms) and
// adjacency lists (fast iteration for DFS-based algorithms).
package graph

import (
	"fmt"

	"hypertree/internal/bitset"
)

// Graph is an undirected graph on vertices 0..N()-1. Self-loops are ignored;
// parallel edges collapse.
type Graph struct {
	adj []bitset.Set
}

// New returns an empty graph with n vertices.
func New(n int) *Graph {
	return &Graph{adj: make([]bitset.Set, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// AddEdge inserts the undirected edge {u, v}. Self-loops are ignored.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		return
	}
	g.check(u)
	g.check(v)
	g.adj[u].Add(v)
	g.adj[v].Add(u)
}

func (g *Graph) check(v int) {
	if v < 0 || v >= len(g.adj) {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, len(g.adj)))
	}
}

// RemoveEdge deletes the undirected edge {u, v} if present.
func (g *Graph) RemoveEdge(u, v int) {
	if u < 0 || v < 0 || u >= len(g.adj) || v >= len(g.adj) {
		return
	}
	g.adj[u].Remove(v)
	g.adj[v].Remove(u)
}

// IsolateVertex removes every edge incident to v.
func (g *Graph) IsolateVertex(v int) {
	for _, u := range g.adj[v].Elems() {
		g.RemoveEdge(u, v)
	}
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) {
		return false
	}
	return g.adj[u].Has(v)
}

// Neighbors returns the adjacency set of v. The returned set must not be
// mutated by the caller.
func (g *Graph) Neighbors(v int) bitset.Set { return g.adj[v] }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int { return g.adj[v].Len() }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, a := range g.adj {
		total += a.Len()
	}
	return total / 2
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.N())
	for v, a := range g.adj {
		c.adj[v] = a.Clone()
	}
	return c
}

// Components returns the connected components as vertex slices, each sorted
// increasingly, ordered by smallest member.
func (g *Graph) Components() [][]int {
	n := g.N()
	seen := make([]bool, n)
	var comps [][]int
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			g.adj[v].ForEach(func(u int) {
				if !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			})
		}
		sortInts(comp)
		comps = append(comps, comp)
	}
	return comps
}

// IsForest reports whether g contains no cycle.
func (g *Graph) IsForest() bool {
	comps := g.Components()
	edges := g.NumEdges()
	return edges == g.N()-len(comps)
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
