package hdeval

import (
	"context"
	"fmt"

	"hypertree/internal/decomp"
	"hypertree/internal/obs"
	"hypertree/internal/relation"
	"hypertree/internal/shard"
	"hypertree/internal/yannakakis"
)

// This file is the partitioned-database execution path of the Lemma 4.6
// evaluation. Each decomposition node's λ-join distributes over the shards
// of a PartitionedDB by fragment-and-replicate: the λ atom backed by the
// largest relation (the pivot) is bound shard by shard, every other λ atom
// is bound once against the assembled view and indexed once (a reusable
// relation.JoinIndex), and each shard joins its pivot fragment through the
// shared index chain and projects to χ. Join distributes over union, so
// unioning the per-shard χ-tables in shard order reproduces exactly the
// single-database node table — and because shard fragments are disjoint and
// atom binding is injective on the tuples that pass its selections, the
// merge needs no cross-shard deduplication whenever χ keeps every pivot
// column (the common case); otherwise a deduplicating union runs.

// RootSharded materialises the acyclic instance of Lemma 4.6 against a
// partitioned database: per node, the λ-join fans out across the shards on
// up to shardWorkers goroutines (≤ 0 means one per shard) and the per-shard
// answer tables are merged deterministically. The resulting tree is
// answer-identical to Root(ctx, p.Assembled()).
func (e *Evaluator) RootSharded(ctx context.Context, p *shard.PartitionedDB, shardWorkers int) (*yannakakis.Node, error) {
	if e.HD.Root == nil { // no variable atoms: nothing to materialise
		ok, err := yannakakis.GroundAtomsHold(p.Assembled(), e.Q)
		if err != nil {
			return nil, err
		}
		t := relation.TrueTable()
		if !ok {
			t = relation.NewTable(nil)
		}
		return &yannakakis.Node{Table: t}, nil
	}
	b := &shardedBuilder{
		ctx:     ctx,
		p:       p,
		e:       e,
		workers: shardWorkers,
		tr:      obs.FromContext(ctx),
		// The embedded assembled-view builder serves the binds, the cached
		// encodings and the scan nodes, which have nothing to scatter.
		full: &rootBuilder{ctx: ctx, db: p.Assembled(), e: e, tr: obs.FromContext(ctx), atomTables: map[int]*relation.Table{}},
	}
	root, err := b.build(e.HD.Root)
	if err != nil {
		return nil, err
	}
	ok, err := yannakakis.GroundAtomsHold(p.Assembled(), e.Q)
	if err != nil {
		return nil, err
	}
	if !ok {
		root.Clear()
	}
	return root, nil
}

// shardedBuilder carries the state of one RootSharded materialisation. The
// broadcast-side atom binds run through an embedded rootBuilder pointed at
// the assembled view, sharing its memo (each non-pivot λ atom is bound
// once, however many nodes and shards touch it).
type shardedBuilder struct {
	ctx     context.Context
	p       *shard.PartitionedDB
	e       *Evaluator
	workers int
	tr      *obs.Trace   // nil when the context carries no trace
	full    *rootBuilder // assembled-view binder + memo
}

func (b *shardedBuilder) build(n *decomp.Node) (*yannakakis.Node, error) {
	if err := b.ctx.Err(); err != nil {
		return nil, err
	}
	out, err := b.materializeSharded(n)
	if err != nil {
		return nil, err
	}
	for _, c := range n.Children {
		cn, err := b.build(c)
		if err != nil {
			return nil, err
		}
		out.Children = append(out.Children, cn)
	}
	return out, nil
}

// materializeSharded computes the χ-projection of node n's λ-join by
// scatter-gather over the shards. Under a traced context the whole build is
// one SpanNodeSharded (join steps, actual vs estimated rows), each shard
// task records a SpanShard, and the deterministic merge a SpanMerge.
func (b *shardedBuilder) materializeSharded(n *decomp.Node) (*yannakakis.Node, error) {
	if lf := b.e.lfNodes[n]; lf != nil {
		if len(b.e.lamOrder[n]) == 1 {
			// A scan has no join to scatter: the node table is the
			// assembled relation's cached encoding.
			return b.full.materializeLeapfrog(n, lf)
		}
		return b.materializeShardedLeapfrog(n, lf)
	}
	sp := b.tr.StartSpan(obs.SpanNodeSharded)
	sp.SetKernel(b.e.kernelOf[n])
	// λ in the evaluator's order: ascending estimated cardinality when the
	// plan carries statistics, input order otherwise — so the broadcast-side
	// JoinIndex chain probes the most selective relations first, exactly as
	// the single-database path joins them.
	lam := b.e.lamOrder[n]
	if len(lam) == 0 {
		return nil, fmt.Errorf("hdeval: decomposition node with empty λ")
	}
	// Pivot: the λ edge backed by the most tuples — its fragments carry the
	// bulk of the scan work, so fragmenting it balances the shards best.
	// Ties break to the smallest edge id; the choice is deterministic.
	pivot := lam[0]
	for _, e2 := range lam[1:] {
		if b.rowsOf(e2) > b.rowsOf(pivot) {
			pivot = e2
		}
	}
	// Broadcast side: bind the remaining λ atoms once and chain one
	// JoinIndex per atom, shared by every shard task.
	// The pivot's column convention comes from the atom alone, so every
	// shard fragment matches the JoinIndex chain built from it.
	curVars := yannakakis.AtomVars(b.e.Q, b.e.edgeToAtom[pivot])
	pivotVars := curVars
	var chain []*relation.JoinIndex
	for _, e2 := range lam {
		if e2 == pivot {
			continue
		}
		ft, err := b.full.bind(e2)
		if err != nil {
			return nil, err
		}
		idx := relation.NewJoinIndex(curVars, ft)
		chain = append(chain, idx)
		curVars = idx.OutVars()
	}
	chi := b.e.chiElems[n]
	nodeIdx, hasID := b.e.nodeID[n]
	parts, err := shard.Scatter(b.ctx, b.p, b.workers,
		func(ctx context.Context, i int, db *relation.Database) (*relation.Table, error) {
			ssp := b.tr.StartSpan(obs.SpanShard)
			ssp.SetShard(i)
			if hasID {
				ssp.SetNode(nodeIdx)
			}
			frag, err := yannakakis.BindAtom(db, b.e.Q, b.e.edgeToAtom[pivot])
			if err != nil {
				return nil, err
			}
			t := frag
			for _, idx := range chain {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				t = t.JoinOn(idx)
				ssp.AddSteps(1)
			}
			out := t.Project(chi)
			ssp.SetRows(out.Rows())
			ssp.End()
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	// Binding is injective on the tuples that pass its selections and the
	// join keeps the whole pivot row, so per-shard results are disjoint as
	// long as the χ-projection keeps every pivot column — then the merge is
	// a plain concatenation. A χ that drops pivot columns can collide
	// across shards and takes the deduplicating union.
	msp := b.tr.StartSpan(obs.SpanMerge)
	if hasID {
		msp.SetNode(nodeIdx)
	}
	var merged *relation.Table
	if containsAll(chi, pivotVars) {
		merged = relation.Concat(parts...)
		msp.SetLabel("concat")
	} else {
		merged = relation.Union(parts...)
		msp.SetLabel("union")
	}
	msp.SetRows(merged.Rows())
	msp.End()
	if hasID {
		sp.SetNode(nodeIdx)
		sp.SetLabel(b.e.NodeInfos()[nodeIdx].Label)
	}
	sp.AddSteps(int64(len(chain)))
	sp.SetEst(n.EstRows)
	sp.SetRows(merged.Rows())
	sp.End()
	return &yannakakis.Node{Table: merged}, nil
}

// materializeShardedLeapfrog is the leapfrog-kernel form of
// materializeSharded. The pivot choice and the merge rule are identical to
// the chain path — the kernel changes only how each shard computes its
// χ-table. The broadcast λ relations are bound once against the assembled
// view and encoded into shared Columnars through the evaluator's encoding
// cache — keyed on the assembled Database, so a warm plan skips both the
// bind and the counting-sort on repeat executions (immutable, so every
// shard task leapfrogs over them concurrently through private iterators).
// Each shard still encodes its own pivot fragment: fragments are per-shard
// views, not stable relations, so caching them would only churn the cache.
func (b *shardedBuilder) materializeShardedLeapfrog(n *decomp.Node, lf *lfNode) (*yannakakis.Node, error) {
	sp := b.tr.StartSpan(obs.SpanNodeSharded)
	sp.SetKernel(b.e.kernelOf[n])
	lam := b.e.lamOrder[n]
	if len(lam) == 0 {
		return nil, fmt.Errorf("hdeval: decomposition node with empty λ")
	}
	pivot := lam[0]
	for _, e2 := range lam[1:] {
		if b.rowsOf(e2) > b.rowsOf(pivot) {
			pivot = e2
		}
	}
	pivotVars := yannakakis.AtomVars(b.e.Q, b.e.edgeToAtom[pivot])
	broadcast := make([]*relation.Columnar, 0, len(lam)-1)
	for i, e2 := range lam {
		if e2 == pivot {
			continue
		}
		enc, err := b.full.encoded(n, lf, i)
		if err != nil {
			return nil, err
		}
		broadcast = append(broadcast, enc)
	}
	nodeIdx, hasID := b.e.nodeID[n]
	parts, err := shard.Scatter(b.ctx, b.p, b.workers,
		func(ctx context.Context, i int, db *relation.Database) (*relation.Table, error) {
			ssp := b.tr.StartSpan(obs.SpanShard)
			ssp.SetShard(i)
			ssp.SetKernel(b.e.kernelOf[n])
			if hasID {
				ssp.SetNode(nodeIdx)
			}
			frag, err := yannakakis.BindAtom(db, b.e.Q, b.e.edgeToAtom[pivot])
			if err != nil {
				return nil, err
			}
			cols := make([]*relation.Columnar, 0, len(lam))
			cols = append(cols, relation.NewColumnar(frag, relation.SubOrder(lf.order, frag.Vars)))
			cols = append(cols, broadcast...)
			out := relation.LeapfrogJoinColumnar(cols, lf.order, lf.nChi, 0)
			ssp.AddSteps(int64(len(lam) - 1))
			ssp.SetRows(out.Rows())
			ssp.End()
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	// Same disjointness argument as the chain path: per-shard results can
	// only collide when the χ-projection drops pivot columns.
	msp := b.tr.StartSpan(obs.SpanMerge)
	if hasID {
		msp.SetNode(nodeIdx)
	}
	var merged *relation.Table
	if containsAll(b.e.chiElems[n], pivotVars) {
		merged = relation.Concat(parts...)
		msp.SetLabel("concat")
	} else {
		merged = relation.Union(parts...)
		msp.SetLabel("union")
	}
	msp.SetRows(merged.Rows())
	msp.End()
	if hasID {
		sp.SetNode(nodeIdx)
		sp.SetLabel(b.e.NodeInfos()[nodeIdx].Label)
	}
	sp.AddSteps(int64(len(lam) - 1))
	sp.SetEst(n.EstRows)
	sp.SetRows(merged.Rows())
	sp.End()
	return &yannakakis.Node{Table: merged}, nil
}

// rowsOf returns the total tuple count backing edge e2's atom.
func (b *shardedBuilder) rowsOf(e2 int) int {
	return b.p.Rows(b.e.Q.Atoms[b.e.edgeToAtom[e2]].Pred)
}

// containsAll reports whether set contains every element of elems.
func containsAll(set, elems []int) bool {
	in := make(map[int]bool, len(set))
	for _, v := range set {
		in[v] = true
	}
	for _, v := range elems {
		if !in[v] {
			return false
		}
	}
	return true
}

// BooleanSharded decides the query against a partitioned database: node
// tables materialise shard-parallel (RootSharded), then the usual bottom-up
// semijoin pass runs. The verdict equals Boolean on the assembled database.
func (e *Evaluator) BooleanSharded(ctx context.Context, p *shard.PartitionedDB, shardWorkers int) (bool, error) {
	root, err := e.RootSharded(ctx, p, shardWorkers)
	if err != nil {
		return false, err
	}
	return yannakakis.BooleanContext(ctx, root)
}

// EnumerateSharded computes the full answer relation against a partitioned
// database: node tables materialise shard-parallel, then the full reducer
// and enumeration run on up to reduceWorkers goroutines. The answer set
// equals Enumerate on the assembled database.
func (e *Evaluator) EnumerateSharded(ctx context.Context, p *shard.PartitionedDB, shardWorkers, reduceWorkers int) (*relation.Table, error) {
	root, err := e.RootSharded(ctx, p, shardWorkers)
	if err != nil {
		return nil, err
	}
	return yannakakis.EnumerateContext(ctx, root, e.head, reduceWorkers)
}
