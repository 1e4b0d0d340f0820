package sweepd

import (
	"encoding/json"
	"fmt"
	"net/http"

	"abm/internal/obs/prom"
)

// Handler exposes the coordinator over HTTP+JSON:
//
//	GET  /v1/plan      -> PlanInfo
//	POST /v1/lease     LeaseRequest -> LeaseResponse
//	POST /v1/heartbeat HeartbeatRequest -> HeartbeatResponse
//	POST /v1/result    CompleteRequest -> {}
//	GET  /v1/status    -> Status
//	GET  /metrics      -> fleet gauges, Prometheus text format
//
// The protocol assumes a trusted loopback/LAN segment — it carries no
// authentication, exactly like the job queues it replaces.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/plan", func(w http.ResponseWriter, r *http.Request) {
		info, err := c.PlanInfo()
		if err != nil {
			httpError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, info)
	})
	mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !readJSON(w, r, &req) {
			return
		}
		resp, err := c.Lease(req.Worker, req.N)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("POST /v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !readJSON(w, r, &req) {
			return
		}
		resp, err := c.Heartbeat(req.Worker, req.JobIDs)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("POST /v1/result", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !readJSON(w, r, &req) {
			return
		}
		if err := c.Complete(req.Worker, req.Record, req.Telemetry); err != nil {
			httpError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, struct{}{})
	})
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Status())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		var pw prom.Writer
		c.WriteMetrics(&pw)
		w.Header().Set("Content-Type", prom.ContentType)
		w.Write(pw.Bytes())
	})
	return mux
}

// readJSON decodes the request body, answering 400 on failure.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// writeJSON answers 200 with a JSON body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// httpError answers an error as {"error": "..."} with the given code.
func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
