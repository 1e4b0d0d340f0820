package obs

import (
	"path/filepath"
	"sort"
	"strings"

	"abm/internal/obs/hist"
)

// Options selects what one run records and where it lands. It is part
// of the experiment-cell JSON schema, so a run's telemetry setup is
// reproducible from its config echo. The zero value disables telemetry
// entirely (nil Session, nil Sinks, zero hot-path cost).
type Options struct {
	// EventsFile receives the merged event stream as NDJSON.
	EventsFile string `json:"events_file,omitempty"`
	// ChromeFile receives a Chrome trace-event JSON (chrome://tracing /
	// Perfetto): one counter track per port-priority queue, instant
	// events for drops/marks/timeouts, and one span track per shard.
	ChromeFile string `json:"chrome_file,omitempty"`
	// CountersFile receives the counter totals and the per-queue
	// summary TSV.
	CountersFile string `json:"counters_file,omitempty"`
	// Counters alone (no files) still builds a session, so the
	// components' counts embed in runner records as totals.
	Counters bool `json:"counters,omitempty"`
	// Filter is the event-kind mask (ParseMask syntax); empty records
	// every kind when an event destination is set.
	Filter string `json:"filter,omitempty"`
	// Sample keeps roughly this fraction of the high-volume queue
	// events (admit/enqueue/dequeue/mark), selected by an identity hash
	// so the subset is shard-count-invariant. <=0 or >=1 keeps all.
	Sample float64 `json:"sample,omitempty"`
	// MaxEvents caps each shard's event buffer; 0 selects 1<<20.
	// Overflow increments engine/trace_events_dropped instead of
	// growing without bound.
	MaxEvents int `json:"max_events,omitempty"`
	// PerJob marks the path fields as directories: each job of a sweep
	// or figure resolves its own file inside them via ForJob.
	PerJob bool `json:"per_job,omitempty"`
	// Hists activates the streaming histogram registry: FCT slowdown
	// per class, queue occupancy/delay, admission headroom, hybrid
	// residency. Merged totals embed in runner records like counters.
	Hists bool `json:"hists,omitempty"`
	// HistFile receives the histogram snapshot series as NDJSON ("hist"
	// record kind, one line per histogram per sim-time tick). Implies
	// Hists.
	HistFile string `json:"hist_file,omitempty"`
	// MetricsAddr serves a Prometheus text exposition of the live run
	// at http://<addr>/metrics while it executes. Implies Hists.
	MetricsAddr string `json:"metrics_addr,omitempty"`
}

// Active reports whether the options request any telemetry.
func (o Options) Active() bool {
	return o.EventsFile != "" || o.ChromeFile != "" || o.CountersFile != "" ||
		o.Counters || o.HistsActive()
}

// HistsActive reports whether the options request histogram recording.
func (o Options) HistsActive() bool {
	return o.Hists || o.HistFile != "" || o.MetricsAddr != ""
}

// ForJob resolves per-job output paths: with PerJob set, each path
// field is a directory and the job's file is named by its sanitized ID.
func (o Options) ForJob(id string) Options {
	if !o.PerJob {
		return o
	}
	name := SanitizeID(id)
	if o.EventsFile != "" {
		o.EventsFile = filepath.Join(o.EventsFile, name+".ndjson")
	}
	if o.ChromeFile != "" {
		o.ChromeFile = filepath.Join(o.ChromeFile, name+".trace.json")
	}
	if o.CountersFile != "" {
		o.CountersFile = filepath.Join(o.CountersFile, name+".tsv")
	}
	if o.HistFile != "" {
		o.HistFile = filepath.Join(o.HistFile, name+".hist.ndjson")
	}
	// A single listen address cannot be shared by concurrent jobs.
	o.MetricsAddr = ""
	o.PerJob = false
	return o
}

// SanitizeID maps a job ID to a safe file stem: keep [a-zA-Z0-9._=,-],
// everything else becomes '-'. Every per-job file of a sweep — traces,
// counters, histogram series, shipped telemetry bundles — is named by
// it.
func SanitizeID(id string) string {
	var b strings.Builder
	b.Grow(len(id))
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '=', r == ',', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}

// Session is one run's telemetry: one Sink per shard plus one for the
// parallel coordinator. It is created before the fabric is built and
// read after the run has drained.
type Session struct {
	opts  Options
	sinks []*Sink // one per shard, then the coordinator's
}

// NewSession builds a session for a run with the given shard count
// (1 for the serial engine). It returns nil — the disabled instrument —
// when the options request nothing.
func NewSession(o Options, shards int) (*Session, error) {
	if !o.Active() {
		return nil, nil
	}
	mask := uint32(0)
	if o.EventsFile != "" || o.ChromeFile != "" {
		var err error
		if mask, err = ParseMask(o.Filter); err != nil {
			return nil, err
		}
	}
	bar53 := uint64(1 << 53)
	if o.Sample > 0 && o.Sample < 1 {
		bar53 = uint64(float64(o.Sample * float64(uint64(1)<<53)))
	}
	max := o.MaxEvents
	if max <= 0 {
		max = 1 << 20
	}
	if shards < 1 {
		shards = 1
	}
	s := &Session{opts: o, sinks: make([]*Sink, shards+1)}
	for i := range s.sinks {
		s.sinks[i] = &Sink{mask: mask, bar53: bar53, max: max}
		if i < shards && o.HistsActive() {
			s.sinks[i].hists = new([NumHists]hist.Histogram)
		}
	}
	return s, nil
}

// Options returns the session's configuration.
func (s *Session) Options() Options {
	if s == nil {
		return Options{}
	}
	return s.opts
}

// ShardSink returns shard i's sink (nil on a nil session), the handle
// wired into that shard's switches, hosts and transports.
func (s *Session) ShardSink(i int) *Sink {
	if s == nil {
		return nil
	}
	return s.sinks[i]
}

// EngineSink returns the parallel coordinator's sink (nil on a nil
// session). Only the coordinator goroutine writes it, between windows.
func (s *Session) EngineSink() *Sink {
	if s == nil {
		return nil
	}
	return s.sinks[len(s.sinks)-1]
}

// MergedEvents returns every recorded event in the canonical export
// order: a stable sort of the concatenated per-shard buffers (shards
// in index order, engine last) by the identity key (At, Node, Port,
// Prio, Flow, Seq, Kind). Full-key ties necessarily concern one model
// entity, hence live in one shard's buffer, and keep that buffer's
// execution order — so the model-kind stream is byte-identical at any
// shard count.
func (s *Session) MergedEvents() []Event {
	if s == nil {
		return nil
	}
	total := 0
	for _, sk := range s.sinks {
		total += len(sk.events)
	}
	out := make([]Event, 0, total)
	for _, sk := range s.sinks {
		out = append(out, sk.events...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Port != b.Port {
			return a.Port < b.Port
		}
		if a.Prio != b.Prio {
			return a.Prio < b.Prio
		}
		if a.Flow != b.Flow {
			return a.Flow < b.Flow
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return a.Kind < b.Kind
	})
	return out
}

// Totals pulls every counter from the sources registered with every
// sink, keyed by export name. Zero-valued counters are omitted.
// Addition commutes, so the model/ keys are shard-count-invariant;
// engine/ keys carry wall clocks and are not. Call it only while every
// shard is quiescent: after the run, or at a barrier or snapshot tick.
func (s *Session) Totals() map[string]int64 {
	if s == nil {
		return nil
	}
	var t Tally
	for _, sk := range s.sinks {
		for _, src := range sk.sources {
			src.AddCounts(&t)
		}
		t[CtrTraceDropped] += sk.dropped
	}
	out := make(map[string]int64)
	for id, v := range t {
		if v != 0 {
			out[Ctr(id).Name()] = v
		}
	}
	return out
}
