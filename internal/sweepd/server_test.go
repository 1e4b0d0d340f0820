package sweepd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"abm/internal/runner"
)

// FuzzCoordinatorHandler drives the coordinator's HTTP handler with
// arbitrary bodies and worker names on /v1/lease, /v1/heartbeat and
// /v1/result, mixed with well-formed leases, heartbeats and results
// (right and wrong seeds, known and unknown jobs). Every request must
// be answered without a panic; a body that does not decode as the
// endpoint's request must get 400; /v1/status must keep done <= jobs;
// and a result for an unknown job or at a seed other than the job's
// must be refused: never a 200 unless the job already holds a record,
// and never a change to the table's records.
func FuzzCoordinatorHandler(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 3, 2, 1}, "w1", []byte(`{"worker":"x","n":2}`))
	f.Add([]byte{3, 0, 7, 1, 11, 2, 3, 2}, "", []byte(`{`))
	f.Add([]byte{0, 3, 2, 0, 18, 1, 2, 4, 3, 2, 6, 0}, "a\x00b", []byte(`{"record":{"id":"fuzz/0001-g1","seed":1}}`))
	f.Add([]byte{0, 0, 0, 0, 2, 0, 2, 1, 2, 2, 2, 3, 18, 0, 3, 0}, "w", []byte(`{"worker":"w","job_ids":["fuzz/0000-g0",""]}`))
	f.Add([]byte{7, 1, 7, 2, 11, 0}, "\xff", []byte(`{"worker":1}`))
	f.Fuzz(func(t *testing.T, ops []byte, worker string, raw []byte) {
		plan := syntheticPlan("fuzz", 4, nil)
		c, err := NewCoordinator(Config{Plan: plan})
		if err != nil {
			t.Fatal(err)
		}
		h := c.Handler()
		seeds := make(map[string]int64, len(plan.Specs))
		for i, s := range plan.Specs {
			seeds[s.ID] = plan.SeedOf(i)
		}
		workers := []string{worker, "w2", ""}
		var leased []string
		kept := map[string]string{} // job ID -> its record as first accepted

		serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
			return w
		}
		records := func() []runner.Record {
			recs := c.Table().Records()
			for _, r := range recs {
				if want, ok := seeds[r.ID]; !ok || r.Seed != want {
					t.Fatalf("table holds a record for %q at seed %d (job known: %v, seed %d)", r.ID, r.Seed, ok, want)
				}
				b, _ := json.Marshal(r)
				if prev, ok := kept[r.ID]; ok && prev != string(b) {
					t.Fatalf("record of %s replaced:\n%s\nby\n%s", r.ID, prev, b)
				}
				kept[r.ID] = string(b)
			}
			return recs
		}
		// result posts body to /v1/result and checks the answer against
		// the record it carries.
		result := func(body []byte, rec runner.Record) {
			_, had := kept[rec.ID]
			before := len(records())
			w := serve(http.MethodPost, "/v1/result", body)
			want, known := seeds[rec.ID]
			if refused := !known || rec.Seed != want; refused {
				if w.Code == http.StatusOK && !had {
					t.Fatalf("result for %q at seed %d answered 200 (job known: %v, seed %d)", rec.ID, rec.Seed, known, want)
				}
				if after := len(records()); after != before {
					t.Fatalf("refused result for %q changed the table's records from %d to %d", rec.ID, before, after)
				}
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int(ops[i+1])
			wk := workers[int(op>>2)%len(workers)]
			switch op & 3 {
			case 0:
				body, _ := json.Marshal(LeaseRequest{Worker: wk, N: arg%3 - 1})
				w := serve(http.MethodPost, "/v1/lease", body)
				var resp LeaseResponse
				if w.Code == http.StatusOK && json.Unmarshal(w.Body.Bytes(), &resp) == nil {
					for _, l := range resp.Leases {
						leased = append(leased, l.ID)
					}
				}
			case 1:
				ids := []string{"fuzz/none", ""}
				for k, id := range leased {
					if (arg>>(k%8))&1 == 1 {
						ids = append(ids, id)
					}
				}
				body, _ := json.Marshal(HeartbeatRequest{Worker: wk, JobIDs: ids})
				serve(http.MethodPost, "/v1/heartbeat", body)
			case 2:
				// A result for a job of the plan, a leased one or one the
				// plan does not have; bit 4 of op shifts its seed.
				j := arg % (len(plan.Specs) + 1)
				rec := runner.Record{ID: "fuzz/unknown", Status: runner.StatusOK, Seed: int64(arg)}
				if j < len(plan.Specs) {
					rec.ID, rec.Seed = plan.Specs[j].ID, plan.SeedOf(j)
				}
				if len(leased) > 0 && arg&8 != 0 {
					rec.ID = leased[arg%len(leased)]
					rec.Seed = seeds[rec.ID]
				}
				if op&16 != 0 {
					rec.Seed++
				}
				body, _ := json.Marshal(CompleteRequest{Worker: wk, Record: rec})
				result(body, rec)
			case 3:
				// The fuzzer's own body, on one of the three endpoints.
				var err error
				var req CompleteRequest
				dec := func(v any) { err = json.NewDecoder(bytes.NewReader(raw)).Decode(v) }
				path := [...]string{"/v1/lease", "/v1/heartbeat", "/v1/result"}[arg%3]
				switch arg % 3 {
				case 0:
					dec(&LeaseRequest{})
				case 1:
					dec(&HeartbeatRequest{})
				case 2:
					dec(&req)
				}
				if err != nil {
					if w := serve(http.MethodPost, path, raw); w.Code != http.StatusBadRequest {
						t.Fatalf("undecodable body on %s answered %d, want 400: %q", path, w.Code, raw)
					}
				} else if arg%3 == 2 {
					result(raw, req.Record)
				} else {
					serve(http.MethodPost, path, raw)
				}
			}
			w := serve(http.MethodGet, "/v1/status", nil)
			var st Status
			if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
				t.Fatalf("status: %v: %s", err, w.Body.Bytes())
			}
			if st.Jobs != len(plan.Specs) || st.Done > st.Jobs || st.Done != len(records()) {
				t.Fatalf("status jobs=%d done=%d with %d records, plan has %d jobs", st.Jobs, st.Done, len(kept), len(plan.Specs))
			}
		}
	})
}
