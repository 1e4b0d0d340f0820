package sweepd

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"

	"abm/internal/experiments"
	"abm/internal/runner"
)

// The wire protocol is plain HTTP+JSON on loopback or a trusted LAN:
// four POST/GET endpoints under /v1/ (plan, lease, heartbeat, result,
// status). Everything a worker needs to reconstruct the job table
// travels in PlanInfo, so workers share nothing with the coordinator
// but the socket — the grid expansion they run locally is the same
// deterministic Plan() the coordinator used, which is what makes a
// lease as small as (job ID, spec index, seed).

// PlanInfo is what a worker needs to rebuild the coordinator's plan
// locally: the grid (whose deterministic expansion defines spec
// indexes, job IDs and derived seeds) plus the contents of the grid's
// base scenario file, so remote workers need no shared filesystem.
type PlanInfo struct {
	Name string `json:"name"`
	// Jobs is the base plan's job count — a cheap skew check: a worker
	// whose local expansion disagrees must not run anything.
	Jobs int               `json:"jobs"`
	Grid *experiments.Grid `json:"grid"`
	// Scenario is the raw bytes of Grid.Scenario; the worker parses them
	// and expands the grid over them in memory.
	Scenario json.RawMessage `json:"scenario,omitempty"`
}

// LeaseRequest asks for up to N job leases.
type LeaseRequest struct {
	Worker string `json:"worker"`
	N      int    `json:"n"`
}

// Lease is one time-bounded job assignment: the table's lease (job ID,
// spec index, resolved seed, prior attempts) plus SpecID, the plan's ID
// at Index — a skew guard the worker checks against its local
// expansion before running anything.
type Lease struct {
	runner.Lease
	SpecID string `json:"spec_id"`
}

// LeaseResponse carries zero or more leases. Done reports that the
// sweep is complete and the worker should exit; an empty non-done
// response means "nothing leasable right now, poll again after
// BackoffMillis".
type LeaseResponse struct {
	Leases        []Lease `json:"leases,omitempty"`
	Done          bool    `json:"done,omitempty"`
	TTLMillis     int64   `json:"ttl_ms"`
	BackoffMillis int64   `json:"backoff_ms,omitempty"`
}

// HeartbeatRequest renews the worker's leases on the listed jobs.
type HeartbeatRequest struct {
	Worker string   `json:"worker"`
	JobIDs []string `json:"job_ids"`
}

// HeartbeatResponse lists jobs the worker no longer holds (expired and
// re-leased, or already completed elsewhere); results for them will be
// ignored, so the worker can stop caring.
type HeartbeatResponse struct {
	Lost []string `json:"lost,omitempty"`
}

// CompleteRequest submits one finished record, optionally with a
// compressed telemetry bundle.
type CompleteRequest struct {
	Worker string        `json:"worker"`
	Record runner.Record `json:"record"`
	// Telemetry is a gzip-compressed JSON TelemetryBundle (base64 on
	// the wire via encoding/json); empty when the job wrote no trace.
	// The coordinator persists it beside its records, closing the gap
	// between worker-local NDJSON and the coordinator's durable state.
	Telemetry []byte `json:"telemetry,omitempty"`
}

// TelemetryBundle is the decompressed per-job telemetry a worker ships
// with its result: the per-job NDJSON event trace. Counter and
// histogram totals ride in the record itself.
type TelemetryBundle struct {
	JobID string `json:"job_id"`
	// TraceNDJSON is the job's -trace-events export, verbatim.
	TraceNDJSON []byte `json:"trace_ndjson,omitempty"`
}

// EncodeTelemetry serializes a bundle to the wire form: gzip over JSON.
// Nil is returned for a bundle without a trace so callers can skip
// shipping.
func EncodeTelemetry(b *TelemetryBundle) ([]byte, error) {
	if b == nil || len(b.TraceNDJSON) == 0 {
		return nil, nil
	}
	raw, err := json.Marshal(b)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeTelemetry reverses EncodeTelemetry.
func DecodeTelemetry(data []byte) (*TelemetryBundle, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	if err := zr.Close(); err != nil {
		return nil, err
	}
	var b TelemetryBundle
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, err
	}
	return &b, nil
}

// SlowdownSummary condenses a merged FCT-slowdown histogram into the
// tail percentiles the sweep is usually after. Values are slowdown
// ratios (recorded milli-slowdowns divided back by 1000).
type SlowdownSummary struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// GroupStatus is the per-group view of the status endpoint: the job
// table's group progress plus its slowdown summary.
type GroupStatus struct {
	runner.TableGroup
	// Slowdown summarizes the group's merged FCT-slowdown histogram
	// (all classes, all finished replications so far); nil when the
	// sweep records no histograms.
	Slowdown *SlowdownSummary `json:"slowdown,omitempty"`
}

// Status is the coordinator's live state summary.
type Status struct {
	Name string `json:"name"`
	runner.TableStatus
	Finished bool          `json:"finished"`
	Groups   []GroupStatus `json:"groups,omitempty"`
}

// Dispatcher is the coordinator as a remote worker sees it: *Client
// implements it over HTTP, and *Coordinator serves the same calls
// behind its handler. In-process workers bypass it and work the
// coordinator's runner.Table directly.
type Dispatcher interface {
	PlanInfo() (*PlanInfo, error)
	Lease(worker string, n int) (*LeaseResponse, error)
	Heartbeat(worker string, jobIDs []string) (*HeartbeatResponse, error)
	// Complete submits one finished record; telemetry is an optional
	// gzip-compressed TelemetryBundle (nil when the job produced none).
	Complete(worker string, rec runner.Record, telemetry []byte) error
}
