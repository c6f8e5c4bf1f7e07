package hypertree

import (
	"context"
	"fmt"
)

// JoinKernel named the intra-bag join algorithm of a plan when there was a
// choice. There is none now: a decomposition node with one λ relation is a
// scan of its relation's encoding and a node with several runs the leapfrog
// triejoin, whatever this says.
//
// Deprecated: has no effect; kept so callers of WithJoinKernel still build.
type JoinKernel string

// JoinKernelAuto was the per-bag kernel choice.
//
// Deprecated: has no effect.
const JoinKernelAuto JoinKernel = "auto"

// WithJoinKernel selected the intra-bag join kernel.
//
// Deprecated: has no effect — the option changes neither the plan nor its
// PlanCache key.
func WithJoinKernel(JoinKernel) CompileOption {
	return func(*compileConfig) {}
}

// PartitionedDB was a database split across shards for partition-parallel
// execution. There is one evaluator now: a partitioned database is the
// database itself, and node-table parallelism is WithWorkers.
//
// Deprecated: kept only so the bench's shard probe still builds; ROADMAP
// item 1-II removes it together with that probe.
type PartitionedDB = Database

// PartitionStrategy selected how tuples were placed on shards.
//
// Deprecated: has no effect; removed with PartitionedDB by ROADMAP item
// 1-II.
type PartitionStrategy int

// HashPartition was the hash tuple placement.
//
// Deprecated: has no effect; removed with PartitionedDB by ROADMAP item
// 1-II.
const HashPartition PartitionStrategy = 0

// PartitionDatabase rejects n < 1 and otherwise returns db unchanged.
//
// Deprecated: there are no shards; removed with PartitionedDB by ROADMAP
// item 1-II.
func PartitionDatabase(db *Database, n int, _ PartitionStrategy) (*PartitionedDB, error) {
	if n < 1 {
		return nil, fmt.Errorf("hypertree: need at least 1 partition, got %d", n)
	}
	return db, nil
}

// ExecuteBooleanSharded is ExecuteBoolean.
//
// Deprecated: use ExecuteBoolean; removed with PartitionedDB by ROADMAP
// item 1-II.
func (p *Plan) ExecuteBooleanSharded(ctx context.Context, pdb *PartitionedDB) (bool, error) {
	return p.ExecuteBoolean(ctx, pdb)
}
