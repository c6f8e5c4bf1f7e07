package hdeval

import (
	"context"

	"hypertree/internal/obs"
	"hypertree/internal/relation"
	"hypertree/internal/shard"
	"hypertree/internal/yannakakis"
)

// This file is the partitioned-database execution path of the Lemma 4.6
// evaluation. Each multi-relation node's λ-join distributes over the shards
// of a PartitionedDB by fragment-and-replicate: the λ atom backed by the
// largest relation (the pivot) is bound and encoded shard by shard, every
// other λ atom is fetched once from the assembled view's encoding cache and
// shared, and each shard leapfrogs its pivot fragment against them. Join
// distributes over union, so the union of the per-shard χ-tables
// (relation.Union: columns concatenated, sorted, and the rows two shards both
// produced dropped — possible when χ drops pivot columns) reproduces exactly
// the single-database node table.

// RootSharded materialises the acyclic instance of Lemma 4.6 against a
// partitioned database: per node, the λ-join fans out across the shards on
// up to shardWorkers goroutines (≤ 0 means one per shard) and the per-shard
// answer tables are merged deterministically. The resulting tree is
// answer-identical to Root(ctx, p.Assembled()).
func (e *Evaluator) RootSharded(ctx context.Context, p *shard.PartitionedDB, shardWorkers int) (*yannakakis.Node, error) {
	if len(e.nodes) == 0 { // no variable atoms: nothing to materialise
		return groundRoot(p.Assembled(), e.Q)
	}
	b := &shardedBuilder{
		ctx:     ctx,
		p:       p,
		e:       e,
		workers: shardWorkers,
		tr:      obs.FromContext(ctx),
		// The embedded assembled-view builder serves the binds, the cached
		// encodings and the scan nodes, which have nothing to scatter.
		full: &rootBuilder{ctx: ctx, db: p.Assembled(), e: e, tr: obs.FromContext(ctx)},
	}
	root, err := b.build(0)
	if err != nil {
		return nil, err
	}
	return root, clearUnlessGroundAtomsHold(root, p.Assembled(), e.Q)
}

// shardedBuilder carries the state of one RootSharded materialisation. The
// broadcast-side atom binds run through an embedded rootBuilder pointed at
// the assembled view, hence through the encoding cache (each non-pivot λ
// atom is bound once, however many nodes and shards touch it).
type shardedBuilder struct {
	ctx     context.Context
	p       *shard.PartitionedDB
	e       *Evaluator
	workers int
	tr      *obs.Trace   // nil when the context carries no trace
	full    *rootBuilder // assembled-view binder
}

// build materialises node i's subtree, node by node in preorder.
func (b *shardedBuilder) build(i int) (*yannakakis.Node, error) {
	if err := b.ctx.Err(); err != nil {
		return nil, err
	}
	n := &b.e.nodes[i]
	// A scan has no join to scatter: the node table is the assembled
	// relation's cached encoding.
	materialize := b.full.materialize
	if len(n.lam) > 1 {
		materialize = b.materializeSharded
	}
	out, err := materialize(n)
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

// materializeSharded computes the χ-projection of a multi-relation node's
// λ-join by scatter-gather over the shards. The broadcast λ relations come
// from the evaluator's encoding cache — keyed on the assembled Database, so
// a warm plan skips both the bind and the counting-sort on repeat
// executions (immutable, so every shard task leapfrogs over them
// concurrently through private iterators). Each shard still encodes its own
// pivot fragment: fragments are per-shard views, not stable relations, so
// caching them would only churn the cache. Under a traced context the whole
// build is one SpanNodeSharded (join steps, actual vs estimated rows), each
// shard task records a SpanShard, and the merge a SpanMerge.
func (b *shardedBuilder) materializeSharded(n *Node) (*yannakakis.Node, error) {
	sp := b.tr.StartSpan(obs.SpanNodeSharded)
	// Pivot: the λ edge backed by the most tuples — its fragments carry the
	// bulk of the scan work, so fragmenting it balances the shards best.
	// Ties break to the smallest edge id; the choice is deterministic.
	pivot, pivotSub := n.lam[0], n.subs[0]
	for i, e2 := range n.lam {
		if b.rowsOf(e2) > b.rowsOf(pivot) {
			pivot, pivotSub = e2, n.subs[i]
		}
	}
	broadcast := make([]*relation.Columnar, 0, len(n.lam)-1)
	for i, e2 := range n.lam {
		if e2 == pivot {
			continue
		}
		enc, err := b.full.encoded(n, i)
		if err != nil {
			return nil, err
		}
		broadcast = append(broadcast, enc)
	}
	parts, err := shard.Scatter(b.ctx, b.p, b.workers,
		func(ctx context.Context, i int, db *relation.Database) (*relation.Columnar, error) {
			ssp := b.tr.StartSpan(obs.SpanShard)
			ssp.SetShard(i)
			ssp.SetKernel(n.Kernel)
			ssp.SetNode(n.ID)
			frag, err := yannakakis.BindAtomColumnar(db, b.e.Q, b.e.edgeToAtom[pivot], pivotSub)
			if err != nil {
				return nil, err
			}
			cols := make([]*relation.Columnar, 0, len(n.lam))
			cols = append(cols, frag)
			cols = append(cols, broadcast...)
			out, err := relation.LeapfrogJoinColumnar(ctx, cols, n.Order, n.NOut, 0)
			if err != nil {
				return nil, err
			}
			ssp.AddSteps(int64(len(n.lam) - 1))
			ssp.SetRows(out.Rows())
			ssp.End()
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	msp := b.tr.StartSpan(obs.SpanMerge)
	msp.SetNode(n.ID)
	merged := relation.Union(parts...)
	msp.SetRows(merged.Rows())
	msp.End()
	sp.AddSteps(int64(len(n.lam) - 1))
	b.full.endNodeSpan(sp, n, merged.Rows())
	return &yannakakis.Node{Enc: merged}, nil
}

// rowsOf returns the total tuple count backing edge e2's atom.
func (b *shardedBuilder) rowsOf(e2 int) int {
	return b.p.Rows(b.e.Q.Atoms[b.e.edgeToAtom[e2]].Pred)
}

// BooleanSharded decides the query against a partitioned database: node
// tables materialise shard-parallel (RootSharded), then the usual
// first-witness descent runs. The verdict equals Boolean on the assembled
// database.
func (e *Evaluator) BooleanSharded(ctx context.Context, p *shard.PartitionedDB, shardWorkers int) (bool, error) {
	root, err := e.RootSharded(ctx, p, shardWorkers)
	if err != nil {
		return false, err
	}
	return yannakakis.Exists(ctx, root)
}

// AnswersSharded is Answers against a partitioned database: node tables
// materialise shard-parallel (RootSharded), then the count pass and the walk
// run as on one database. The answers equal Answers on the assembled
// database, in the same order.
func (e *Evaluator) AnswersSharded(ctx context.Context, p *shard.PartitionedDB, shardWorkers int) (*yannakakis.Answers, error) {
	root, err := e.RootSharded(ctx, p, shardWorkers)
	if err != nil {
		return nil, err
	}
	return yannakakis.NewAnswers(ctx, root, e.head)
}
