package hypertree

import (
	"fmt"

	"hypertree/internal/hdeval"
)

// JoinKernel names the algorithm a hypertree-strategy plan uses for each
// decomposition node's intra-bag λ-join (the χ-projected join of Lemma 4.6).
// The kernel is pure mechanism: every kernel computes exactly the same node
// tables, so plans differing only in kernel return identical answers on
// every path (Execute, ExecuteBoolean, and both sharded forms).
type JoinKernel = hdeval.Kernel

// The available join kernels, selectable with WithJoinKernel.
//
// JoinKernelChain (the default) folds the λ relations through a left-deep
// chain of binary hash joins and projects to χ with a deduplicating pass —
// cheap per bag and unbeatable on two-relation bags. JoinKernelLeapfrog
// encodes the λ relations into sorted, dictionary-coded columnar tries and
// intersects them variable by variable (leapfrog triejoin): output (χ)
// variables lead the order, so node tables stream out sorted and distinct,
// and with fractional cover weights the existential suffix is ordered by
// descending cover weight, making total work worst-case optimal with
// respect to the AGM bound r^fhw. JoinKernelAuto picks per node: with a
// statistics snapshot attached (WithStats/WithCostModel) each bag's λ-join
// is priced as a hash chain versus a leapfrog encode+enumerate from the
// per-edge row and distinct-count estimates — capped by the AGM bound
// under fractional covers — and the cheaper kernel runs; without
// statistics the arity rule decides (leapfrog on bags joining ≥ 3
// relations, or ≥ 2 under a fractional cover). Every decision is recorded
// per node, qualified with its reason, in Plan.Explain and on node spans.
const (
	JoinKernelChain    JoinKernel = hdeval.KernelChain
	JoinKernelLeapfrog JoinKernel = hdeval.KernelLeapfrog
	JoinKernelAuto     JoinKernel = hdeval.KernelAuto
)

// ParseJoinKernel parses a kernel name ("chain", "leapfrog" or "auto"; ""
// means the chain default), for CLI flags and config files.
func ParseJoinKernel(s string) (JoinKernel, error) {
	return hdeval.ParseKernel(s)
}

// WithJoinKernel selects the intra-bag join kernel of hypertree-strategy
// plans (see JoinKernel; the default is JoinKernelChain). The option is
// answer-neutral — it changes how node tables are computed, never their
// contents — and changes nothing for the naive strategy, which has no
// bags, or the acyclic one, whose bags hold one relation each and run as
// scans under every kernel. Kernel choice is part of the PlanCache key.
func WithJoinKernel(k JoinKernel) CompileOption {
	return func(c *compileConfig) {
		kn, err := hdeval.ParseKernel(string(k))
		if err != nil {
			if c.err == nil {
				c.err = fmt.Errorf("WithJoinKernel: %w", err)
			}
			return
		}
		c.kernel = kn
	}
}

// JoinKernel returns the plan's configured intra-bag join kernel
// (JoinKernelChain when the option was not given or the strategy uses no
// decomposition).
func (p *Plan) JoinKernel() JoinKernel {
	if p.kernel == "" {
		return JoinKernelChain
	}
	return p.kernel
}

// ColumnarCacheMetrics returns the process-wide hit/miss totals of the
// plan-level Columnar encoding cache that acyclic plans, single-relation
// bags and the leapfrog kernel fetch their relations through (monotonic
// since process start). A warm plan executing
// repeatedly against one database snapshot hits on every λ encoding after
// the first execution; a database swap invalidates every cached encoding,
// so misses after a swap mean re-encoding, not a defect.
func ColumnarCacheMetrics() (hits, misses uint64) {
	return hdeval.ColumnarCacheCounters()
}
