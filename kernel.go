package hypertree

import "hypertree/internal/hdeval"

// JoinKernel named the intra-bag join algorithm of a plan when there was a
// choice. There is none now: a decomposition node with one λ relation is a
// scan of its cached encoding and a node with several runs the leapfrog
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

// ColumnarCacheMetrics returns the process-wide hit/miss totals of the
// plan-level Columnar encoding cache every decomposition node fetches its
// relations through (monotonic since process start). A warm plan executing
// repeatedly against one database snapshot hits on every λ encoding after
// the first execution; a database swap invalidates every cached encoding,
// so misses after a swap mean re-encoding, not a defect.
func ColumnarCacheMetrics() (hits, misses uint64) {
	return hdeval.ColumnarCacheCounters()
}
