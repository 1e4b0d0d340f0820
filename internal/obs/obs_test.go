package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"abm/internal/units"
)

func TestParseMask(t *testing.T) {
	cases := []struct {
		in   string
		want uint32
		err  bool
	}{
		{"", MaskAll, false},
		{"  ", MaskAll, false},
		{"all", MaskAll, false},
		{"model", MaskModel, false},
		{"engine", MaskEngine, false},
		{"model,engine", MaskAll, false},
		{"admit", 1 << KindAdmit, false},
		{"admit,dequeue", 1<<KindAdmit | 1<<KindDequeue, false},
		{" admit , mark ,", 1<<KindAdmit | 1<<KindMark, false},
		{"window,barrier", MaskEngine, false},
		{"bogus", 0, true},
		{"admit,bogus", 0, true},
	}
	for _, c := range cases {
		got, err := ParseMask(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseMask(%q) err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("ParseMask(%q) = %#x, want %#x", c.in, got, c.want)
		}
	}
	// Every kind name must parse back to exactly its own bit.
	for k := Kind(0); k < numKinds; k++ {
		got, err := ParseMask(k.String())
		if err != nil || got != 1<<k {
			t.Errorf("ParseMask(%q) = %#x, %v; want %#x", k.String(), got, err, uint32(1)<<k)
		}
	}
}

// count is a counter source holding one value, standing in for a
// component that keeps its own count.
type count struct {
	id Ctr
	n  int64
}

func (c count) AddCounts(t *Tally) { t[c.id] += c.n }

func TestNilInstrumentsAreSafe(t *testing.T) {
	var s *Sink
	if s.Enabled(KindAdmit) {
		t.Fatal("nil Sink reports enabled")
	}
	s.AddSource(count{CtrDataSent, 1}) // ignored, no panic
	if s.Events() != nil {
		t.Fatal("nil Sink.Events != nil")
	}
	var sess *Session
	if sess.ShardSink(0) != nil || sess.EngineSink() != nil {
		t.Fatal("nil Session returned a sink")
	}
	if sess.MergedEvents() != nil || sess.Totals() != nil {
		t.Fatal("nil Session returned data")
	}
}

func TestSinkBufferCap(t *testing.T) {
	s := &Sink{mask: MaskAll, bar53: 1 << 53, max: 3}
	for i := 0; i < 5; i++ {
		s.Emit(Event{At: units.Time(i), Kind: KindAdmit})
	}
	if len(s.Events()) != 3 {
		t.Fatalf("buffer holds %d events, want cap 3", len(s.Events()))
	}
	if got := s.dropped; got != 2 {
		t.Fatalf("trace_events_dropped = %d, want 2", got)
	}
}

// TestSamplingShardInvariant checks the core property of hash sampling:
// whether an event is kept depends only on its identity, never on which
// sink (shard) it lands in or what was emitted before it.
func TestSamplingShardInvariant(t *testing.T) {
	const n = 4096
	events := make([]Event, n)
	rng := rand.New(rand.NewSource(42))
	for i := range events {
		events[i] = Event{
			At:   units.Time(rng.Int63n(1 << 40)),
			Flow: rng.Uint64() % 512,
			Seq:  rng.Int63n(1 << 20),
			Node: int32(rng.Intn(64)),
			Kind: Kind(rng.Intn(int(KindMark) + 1)), // sampled kinds only
		}
	}
	newSink := func() *Sink {
		s, err := NewSession(Options{EventsFile: "x", Sample: 0.25}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return s.ShardSink(0)
	}

	serial := newSink()
	for i := range events {
		serial.Emit(events[i])
	}
	kept := serial.Events()
	if len(kept) == 0 || len(kept) == n {
		t.Fatalf("sampling kept %d of %d; expected a strict subset", len(kept), n)
	}
	// Rough sanity on the ratio (binomial around 0.25).
	if frac := float64(len(kept)) / n; frac < 0.15 || frac > 0.35 {
		t.Fatalf("sampling kept %.2f, want ~0.25", frac)
	}

	// Re-emit partitioned across 4 sinks by flow; the union must be the
	// same multiset, in the same per-identity order.
	shards := [4]*Sink{newSink(), newSink(), newSink(), newSink()}
	for i := range events {
		shards[events[i].Flow%4].Emit(events[i])
	}
	var union []Event
	for _, sk := range shards {
		union = append(union, sk.Events()...)
	}
	if len(union) != len(kept) {
		t.Fatalf("sharded sampling kept %d, serial kept %d", len(union), len(kept))
	}
	count := func(evs []Event) map[Event]int {
		m := make(map[Event]int, len(evs))
		for _, ev := range evs {
			m[ev]++
		}
		return m
	}
	if !reflect.DeepEqual(count(kept), count(union)) {
		t.Fatal("sharded sampling kept a different event set than serial")
	}
}

// TestMergedEventsOrder checks the canonical export order: a stable
// sort on the identity key, with full-key ties keeping their shard
// buffer's execution order.
func TestMergedEventsOrder(t *testing.T) {
	sess, err := NewSession(Options{EventsFile: "x"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 0 holds the later events, shard 1 the earlier ones, plus a
	// same-key pair in shard 0 whose relative order must survive.
	sess.ShardSink(0).Emit(Event{At: 200, Node: 3, Kind: KindEnqueue, Seq: 1, Aux: 111})
	sess.ShardSink(0).Emit(Event{At: 200, Node: 3, Kind: KindEnqueue, Seq: 1, Aux: 222})
	sess.ShardSink(0).Emit(Event{At: 300, Node: 1, Kind: KindAdmit})
	sess.ShardSink(1).Emit(Event{At: 100, Node: 9, Kind: KindAdmit})
	sess.ShardSink(1).Emit(Event{At: 200, Node: 2, Kind: KindDequeue})
	sess.EngineSink().Emit(Event{At: 100, Node: 0, Kind: KindWindow})

	got := sess.MergedEvents()
	wantAt := []units.Time{100, 100, 200, 200, 200, 300}
	wantNode := []int32{0, 9, 2, 3, 3, 1}
	if len(got) != len(wantAt) {
		t.Fatalf("merged %d events, want %d", len(got), len(wantAt))
	}
	for i := range got {
		if got[i].At != wantAt[i] || got[i].Node != wantNode[i] {
			t.Fatalf("merged[%d] = (t=%d node=%d), want (t=%d node=%d)",
				i, got[i].At, got[i].Node, wantAt[i], wantNode[i])
		}
	}
	// The tie (t=200, node=3) kept execution order.
	if got[3].Aux != 111 || got[4].Aux != 222 {
		t.Fatalf("full-key tie reordered: %d then %d, want 111 then 222", got[3].Aux, got[4].Aux)
	}
}

// TestWriteNDJSONGolden pins the exact byte output per kind — the
// export is hand-built, so the schema is verified here rather than by
// the json package.
func TestWriteNDJSONGolden(t *testing.T) {
	events := []Event{
		{At: 1500, Kind: KindAdmit, Node: 10000, Port: 2, Prio: 1, Flow: 7, Seq: 3,
			Size: 1500, QLen: 4500, Free: 90000, Thresh: 12000, Alpha: 0.5, MuB: 0.25,
			NCong: 2, Unsched: true, Verdict: VerdictDropThreshold},
		{At: 1600, Kind: KindEnqueue, Node: 10000, Port: 2, Prio: 1, Flow: 7, Seq: 4, Size: 1500, QLen: 6000},
		{At: 1700, Kind: KindDequeue, Node: 10000, Port: 2, Prio: 1, Flow: 7, Seq: 4, Size: 1500,
			QLen: 4500, Aux: 100, Verdict: VerdictTx},
		{At: 1800, Kind: KindMark, Node: 20000, Port: 0, Prio: 0, Flow: 9, Seq: 1, Size: 64, QLen: 128},
		{At: 2000, Kind: KindTimeout, Node: 5, Flow: 9, Seq: 11, Aux: 9000000, QLen: 3000},
		{At: 2100, Kind: KindCwndCut, Node: 5, Flow: 9, QLen: 1500},
		{At: 2150, Kind: KindHybridDemote, Node: 5, Flow: 9, Seq: 20000, QLen: 45000, Aux: 1250000000},
		{At: 2160, Kind: KindHybridPromote, Node: 5, Flow: 9, Seq: 80000, QLen: 60000, Aux: 60000},
		{At: 2200, Kind: KindWindow, Node: 1, Dur: 500, Aux: 42, Wall: 777},
		{At: 2300, Kind: KindBarrier, Aux: 2, Wall: 888},
	}
	want := strings.Join([]string{
		`{"t":1500,"kind":"admit","node":10000,"port":2,"prio":1,"flow":7,"seq":3,"size":1500,"qlen":4500,"free":90000,"thresh":12000,"alpha":0.5,"mu_b":0.25,"ncong":2,"unsched":true,"verdict":"drop-threshold"}`,
		`{"t":1600,"kind":"enqueue","node":10000,"port":2,"prio":1,"flow":7,"seq":4,"size":1500,"qlen":6000}`,
		`{"t":1700,"kind":"dequeue","node":10000,"port":2,"prio":1,"flow":7,"seq":4,"size":1500,"qlen":4500,"sojourn_ps":100,"verdict":"tx"}`,
		`{"t":1800,"kind":"mark","node":20000,"port":0,"prio":0,"flow":9,"seq":1,"size":64,"qlen":128}`,
		`{"t":2000,"kind":"timeout","node":5,"flow":9,"seq":11,"rto_ps":9000000,"cwnd":3000}`,
		`{"t":2100,"kind":"cwndcut","node":5,"flow":9,"cwnd":1500}`,
		`{"t":2150,"kind":"hybrid-demote","node":5,"flow":9,"seq":20000,"cwnd":45000,"rate":1250000000}`,
		`{"t":2160,"kind":"hybrid-promote","node":5,"flow":9,"seq":80000,"cwnd":60000,"fluid_bytes":60000}`,
		`{"t":2200,"kind":"window","shard":1,"dur_ps":500,"events":42,"wall_ns":777}`,
		`{"t":2300,"kind":"barrier","shards":2,"wall_ns":888}`,
	}, "\n") + "\n"

	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, events); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Errorf("NDJSON mismatch:\ngot:\n%swant:\n%s", buf.String(), want)
	}
	// Every line must also be valid JSON.
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Errorf("invalid JSON line %q: %v", line, err)
		}
	}
}

func TestWriteChromeIsValidJSON(t *testing.T) {
	sess, err := NewSession(Options{ChromeFile: "x"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	sess.ShardSink(0).Emit(Event{At: 1000, Kind: KindEnqueue, Node: 10000, Port: 1, QLen: 3000})
	sess.ShardSink(0).Emit(Event{At: 2000, Kind: KindAdmit, Node: 10000, Port: 1, Verdict: VerdictDropThreshold,
		Free: 500, Thresh: 100, Alpha: 0.5, MuB: 1, NCong: 3})
	sess.ShardSink(1).Emit(Event{At: 1500, Kind: KindMark, Node: 20000, Port: 0, QLen: 64})
	sess.ShardSink(1).Emit(Event{At: 3000, Kind: KindTimeout, Node: 4, Flow: 8, QLen: 1500})
	sess.EngineSink().Emit(Event{At: 0, Dur: 1000, Kind: KindWindow, Node: 0, Aux: 10, Wall: 50})
	sess.EngineSink().Emit(Event{At: 1000, Kind: KindBarrier, Aux: 2, Wall: 20})

	var buf bytes.Buffer
	if err := WriteChrome(&buf, sess.MergedEvents(), func(id int32) string { return "n" }); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph]++
	}
	for _, ph := range []string{"M", "C", "i", "X"} {
		if phases[ph] == 0 {
			t.Errorf("chrome trace has no %q events (got %v)", ph, phases)
		}
	}
}

func TestOptionsForJob(t *testing.T) {
	o := Options{EventsFile: "ev", ChromeFile: "ch", CountersFile: "ct", PerJob: true}
	j := o.ForJob("sweep/001-bm=ABM,load=0.4/rep 1")
	if j.PerJob {
		t.Fatal("ForJob left PerJob set")
	}
	if j.EventsFile != "ev/sweep-001-bm=ABM,load=0.4-rep-1.ndjson" {
		t.Errorf("EventsFile = %q", j.EventsFile)
	}
	if j.ChromeFile != "ch/sweep-001-bm=ABM,load=0.4-rep-1.trace.json" {
		t.Errorf("ChromeFile = %q", j.ChromeFile)
	}
	if j.CountersFile != "ct/sweep-001-bm=ABM,load=0.4-rep-1.tsv" {
		t.Errorf("CountersFile = %q", j.CountersFile)
	}
	// Without PerJob the paths pass through untouched.
	o.PerJob = false
	if got := o.ForJob("x"); got != o {
		t.Errorf("ForJob without PerJob changed options: %+v", got)
	}
}

func TestSessionInactive(t *testing.T) {
	sess, err := NewSession(Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sess != nil {
		t.Fatal("inactive options produced a non-nil session")
	}
	// Counters alone builds a session but records no events.
	sess, err = NewSession(Options{Counters: true}, 2)
	if err != nil || sess == nil {
		t.Fatalf("Counters-only session: %v, %v", sess, err)
	}
	if sess.ShardSink(0).Enabled(KindAdmit) {
		t.Fatal("Counters-only session records events")
	}
	sess.ShardSink(0).AddSource(count{CtrDataSent, 3})
	sess.ShardSink(1).AddSource(count{CtrDataSent, 4})
	sess.ShardSink(1).AddSource(count{CtrRTOFired, 0})
	if got := sess.Totals(); len(got) != 1 || got["model/data_pkts_sent"] != 7 {
		t.Fatalf("totals = %v, want only model/data_pkts_sent summed to 7", got)
	}
}
