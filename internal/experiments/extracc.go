package experiments

import (
	"fmt"
	"io"

	"abm/internal/runner"
	"abm/internal/scenario"
)

// extraCCs are the related-work transports, extraFracs their request
// sizes.
var (
	extraCCs   = []string{"hpcc", "dcqcn", "swift"}
	extraFracs = []float64{0.25, 0.5, 0.75}
)

// The extracc figure extends Figure 9 beyond the paper: the
// related-work transports the paper cites but does not evaluate (HPCC,
// DCQCN, Swift) under the same incast sweep, with DT vs ABM. The
// expectation carries over — the stronger the transport's own
// congestion signal, the less ABM adds, until the burst exceeds what
// any end-host control can do about the first RTT.
func extraCCJobs(base scenario.Scenario) []job {
	return ccByRequestJobs(base, extraCCs, extraFracs)
}

func extraCCRender(w io.Writer, res []runner.Result) {
	fmt.Fprintln(w, "# Extension: related-work transports (HPCC, DCQCN, Swift) x request size, DT vs ABM")
	ccByRequestRender(w, res, extraCCs, extraFracs)
}
