package experiments

import "abm/internal/scenario"

// The extracc figure extends Figure 9 beyond the paper: the
// related-work transports the paper cites but does not evaluate (HPCC,
// DCQCN, Swift) under the same incast sweep, with DT vs ABM. The
// expectation carries over — the stronger the transport's own
// congestion signal, the less ABM adds, until the burst exceeds what
// any end-host control can do about the first RTT.
func extraCCJobs(base scenario.Scenario) []job {
	return ccByRequestJobs(base, "# Extension: related-work transports (HPCC, DCQCN, Swift) x request size, DT vs ABM\n",
		[]string{"hpcc", "dcqcn", "swift"}, []float64{0.25, 0.5, 0.75})
}
