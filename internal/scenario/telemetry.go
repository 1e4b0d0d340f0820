package scenario

import (
	"math"
	"net"
	"net/http"
	"sync/atomic"

	"abm/internal/metrics"
	"abm/internal/obs"
	"abm/internal/obs/hist"
	"abm/internal/obs/prom"
	"abm/internal/topo"
	"abm/internal/units"
)

// histRecorder drives the run's tick-level histogram recording: FCT
// slowdowns of newly finished flows and per-queue occupancy at each
// sampler tick, plus the snapshot series (NDJSON and/or the live
// /metrics exposition). Hot-path histograms (queue delay, admission
// headroom, hybrid residency) record straight into the per-shard sinks
// from the device and hybrid layers; this recorder only adds what needs
// a global view.
//
// Determinism: ticks run at fixed sim times as part of the run's one
// periodic sample, at window barriers, which observe one cut (every
// event before the tick time executed, none after). A finished
// flow is recorded the first tick strictly after its end time, so the
// recording tick is a pure function of the flow record and the
// snapshot series is byte-identical at any shard count.
type histRecorder struct {
	sess *obs.Session
	col  *metrics.Collector
	net  *topo.Network

	slowdown [4]*hist.Histogram // ws, incast, long, other
	occ      *hist.Histogram

	done   []bool // col.Flows[i] already recorded
	series []byte // NDJSON snapshot lines (HistFile)

	live *liveServer
}

// newHistRecorder returns nil when the scenario records no histograms.
// It starts the live /metrics server immediately when one is requested,
// so a scrape can watch the run from its first tick.
func newHistRecorder(r Scenario, sess *obs.Session, col *metrics.Collector,
	n *topo.Network) (*histRecorder, error) {

	if !sess.HistsEnabled() {
		return nil, nil
	}
	sink := sess.ShardSink(0)
	rec := &histRecorder{
		sess: sess,
		col:  col,
		net:  n,
		slowdown: [4]*hist.Histogram{
			sink.Hist(obs.HistSlowdownWS),
			sink.Hist(obs.HistSlowdownIncast),
			sink.Hist(obs.HistSlowdownLong),
			sink.Hist(obs.HistSlowdownOther),
		},
		occ: sink.Hist(obs.HistQueueOcc),
	}
	if addr := r.Obs.MetricsAddr; addr != "" {
		live, err := startLiveServer(addr)
		if err != nil {
			return nil, err
		}
		rec.live = live
		rec.publish(0)
	}
	return rec, nil
}

// tick records flows that finished strictly before now plus one
// occupancy sample per fabric queue, then emits a snapshot. The run's
// periodic sample calls it; a nil recorder (hists off) does nothing.
func (r *histRecorder) tick(now units.Time) {
	if r == nil {
		return
	}
	flows := r.col.Flows
	for len(r.done) < len(flows) {
		r.done = append(r.done, false)
	}
	for i := range flows {
		f := &flows[i]
		if r.done[i] || !f.Finished || f.End >= now {
			continue
		}
		r.recordFlow(f)
		r.done[i] = true
	}
	for _, sw := range r.net.Switches() {
		for p := 0; p < sw.NumPorts(); p++ {
			for q := 0; q < sw.Prios(); q++ {
				r.occ.Record(int64(sw.Port(p).Queue(q).Bytes()))
			}
		}
	}
	r.snapshot(now)
}

// finish records every remaining finished flow after the drain (their
// end times may sit past the last tick) and emits the final snapshot,
// stamped at the drain deadline.
func (r *histRecorder) finish(at units.Time) {
	if r == nil {
		return
	}
	flows := r.col.Flows
	for len(r.done) < len(flows) {
		r.done = append(r.done, false)
	}
	for i := range flows {
		f := &flows[i]
		if r.done[i] || !f.Finished {
			continue
		}
		r.recordFlow(f)
		r.done[i] = true
	}
	r.snapshot(at)
	if r.live != nil {
		r.live.Close()
	}
}

// recordFlow buckets one finished flow's slowdown (x1000) by class.
func (r *histRecorder) recordFlow(f *metrics.FlowRecord) {
	v := int64(math.Round(f.Slowdown() * 1000))
	switch f.Class {
	case metrics.ClassWebSearch:
		r.slowdown[0].Record(v)
	case metrics.ClassIncast:
		r.slowdown[1].Record(v)
	case metrics.ClassLong:
		r.slowdown[2].Record(v)
	default:
		r.slowdown[3].Record(v)
	}
}

// snapshot appends one NDJSON line per non-empty merged histogram to
// the series and refreshes the live exposition.
func (r *histRecorder) snapshot(now units.Time) {
	if r.sess.Options().HistFile != "" {
		for id := obs.HistID(0); id < obs.NumHists; id++ {
			snap := r.sess.MergedHist(id)
			if snap.Count == 0 {
				continue
			}
			r.series = obs.AppendHistJSON(r.series, now, id, snap)
			r.series = append(r.series, '\n')
		}
	}
	r.publish(now)
}

// publish renders the current model-side exposition for live scrapes.
func (r *histRecorder) publish(now units.Time) {
	if r.live == nil {
		return
	}
	var w prom.Writer
	r.sess.WriteProm(&w, now)
	r.live.publish(w.Bytes())
}

// liveServer serves the most recent exposition at /metrics while a run
// executes. The sim goroutine publishes immutable byte slices; scrape
// handlers only load them, so the engine never blocks on HTTP.
type liveServer struct {
	ln  net.Listener
	srv *http.Server
	buf atomic.Value // []byte
}

func startLiveServer(addr string) (*liveServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &liveServer{ln: ln}
	s.buf.Store([]byte{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", prom.ContentType)
		w.Write(s.buf.Load().([]byte))
	})
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln)
	return s, nil
}

func (s *liveServer) publish(b []byte) { s.buf.Store(b) }

func (s *liveServer) Close() { s.srv.Close() }
