package obs

import (
	"testing"

	"abm/internal/obs/prom"
	"abm/internal/units"
)

// TestWritePromGolden pins the exposition format byte-for-byte: a
// hand-filled two-shard session must render exactly this text. The
// golden covers HELP/TYPE lines, the class-labeled slowdown family,
// cumulative le buckets with unit scaling, +Inf/_sum/_count, and the
// sorted model counter tail.
func TestWritePromGolden(t *testing.T) {
	sess, err := NewSession(Options{Counters: true, Hists: true}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Slowdowns split across shards: merging must add buckets.
	sess.ShardSink(0).Hist(HistSlowdownWS).Record(1500)
	sess.ShardSink(0).Hist(HistSlowdownWS).Record(2000)
	sess.ShardSink(1).Hist(HistSlowdownWS).Record(3000)
	sess.ShardSink(1).Hist(HistSlowdownIncast).Record(8000)
	sess.ShardSink(0).Hist(HistQueueDelay).Record(2_500_000) // 2.5us
	sess.ShardSink(1).Hist(HistAdmitHeadroom).Record(-300)   // at/past threshold
	sess.ShardSink(0).AddSource(count{CtrAdmittedPkts, 12})
	sess.ShardSink(1).AddSource(count{CtrAdmittedPkts, 30})

	var w prom.Writer
	sess.WriteProm(&w, 2*units.Millisecond)
	got := string(w.Bytes())

	const want = `# HELP abm_sim_time_seconds Simulated time of this snapshot.
# TYPE abm_sim_time_seconds gauge
abm_sim_time_seconds 0.002
# HELP abm_fct_slowdown FCT slowdown (FCT / ideal FCT) of finished flows by class.
# TYPE abm_fct_slowdown histogram
abm_fct_slowdown_bucket{class="websearch",le="1.535"} 1
abm_fct_slowdown_bucket{class="websearch",le="2.047"} 2
abm_fct_slowdown_bucket{class="websearch",le="3.071"} 3
abm_fct_slowdown_bucket{class="websearch",le="+Inf"} 3
abm_fct_slowdown_sum{class="websearch"} 6.5
abm_fct_slowdown_count{class="websearch"} 3
abm_fct_slowdown_bucket{class="incast",le="8.191"} 1
abm_fct_slowdown_bucket{class="incast",le="+Inf"} 1
abm_fct_slowdown_sum{class="incast"} 8
abm_fct_slowdown_count{class="incast"} 1
abm_fct_slowdown_bucket{class="long",le="+Inf"} 0
abm_fct_slowdown_sum{class="long"} 0
abm_fct_slowdown_count{class="long"} 0
abm_fct_slowdown_bucket{class="other",le="+Inf"} 0
abm_fct_slowdown_sum{class="other"} 0
abm_fct_slowdown_count{class="other"} 0
# HELP abm_queue_delay_seconds Per-packet queueing delay at dequeue.
# TYPE abm_queue_delay_seconds histogram
abm_queue_delay_seconds_bucket{le="2.621439e-06"} 1
abm_queue_delay_seconds_bucket{le="+Inf"} 1
abm_queue_delay_seconds_sum 2.5e-06
abm_queue_delay_seconds_count 1
# HELP abm_queue_occupancy_bytes Per-queue occupancy sampled at snapshot ticks.
# TYPE abm_queue_occupancy_bytes histogram
abm_queue_occupancy_bytes_bucket{le="+Inf"} 0
abm_queue_occupancy_bytes_sum 0
abm_queue_occupancy_bytes_count 0
# HELP abm_admit_headroom_bytes Threshold headroom (threshold - queue length) at admission.
# TYPE abm_admit_headroom_bytes histogram
abm_admit_headroom_bytes_bucket{le="0"} 1
abm_admit_headroom_bytes_bucket{le="+Inf"} 1
abm_admit_headroom_bytes_sum -300
abm_admit_headroom_bytes_count 1
# HELP abm_hybrid_residency_seconds Fluid-mode stint length at promotion (hybrid engine).
# TYPE abm_hybrid_residency_seconds histogram
abm_hybrid_residency_seconds_bucket{le="+Inf"} 0
abm_hybrid_residency_seconds_sum 0
abm_hybrid_residency_seconds_count 0
# HELP abm_hybrid_promotion_lead_bytes Bytes remaining at promotion back to packet mode.
# TYPE abm_hybrid_promotion_lead_bytes histogram
abm_hybrid_promotion_lead_bytes_bucket{le="+Inf"} 0
abm_hybrid_promotion_lead_bytes_sum 0
abm_hybrid_promotion_lead_bytes_count 0
# TYPE abm_model_admitted_pkts counter
abm_model_admitted_pkts 42
`
	if got != want {
		t.Errorf("WriteProm golden mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
