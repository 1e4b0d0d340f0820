package runner

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// FuzzLeaseTable drives the job table with arbitrary sequences of
// lease, heartbeat, complete and reap calls from three workers:
// duplicate and stale completions, unknown IDs, wrong seeds and
// heartbeats for jobs a worker does not hold. Leases live for an hour,
// so only the explicit reap (two hours ahead) expires them. After
// every step the table must hold at most one record per job, at the
// job's seed; a duplicate completion never replaces the first accepted
// record; Done is closed exactly when every job is done; and Records
// is in plan order without duplicate IDs.
func FuzzLeaseTable(f *testing.F) {
	f.Add([]byte{0, 0, 2, 0, 2, 0, 0x10, 1, 0x12, 1, 0x22, 1})
	f.Add([]byte{0, 1, 1, 0, 5, 0, 0, 0, 5, 0, 2, 0, 3, 1, 4, 2, 0x11, 3})
	f.Add([]byte{2, 8, 0, 1, 0, 1, 2, 3}) // a job completed while still queued
	f.Add([]byte{0, 3, 5, 0, 0, 3, 5, 0, 0, 3, 5, 0, 0, 3, 5, 0, 0, 3, 5, 0, 2, 0, 2, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		plan := fakePlan(5, nil)
		tb, err := NewTable(plan, TableConfig{MaxLeaseAttempts: 3})
		if err != nil {
			t.Fatal(err)
		}
		index := make(map[string]int, len(plan.Specs))
		for i, s := range plan.Specs {
			index[s.ID] = i
		}
		workers := []string{"a", "b", "c"}
		var leases []Lease           // every lease handed out, in order
		accepted := map[string]int{} // job ID -> tag of its accepted record
		tag := 0
		complete := func(w string, rec Record) {
			tag++
			rec.Attempts = tag // identifies this completion in Records
			ok, err := tb.Complete(w, rec)
			if ok {
				if prev, dup := accepted[rec.ID]; dup {
					t.Fatalf("completion %d of %s accepted over record %d", tag, rec.ID, prev)
				}
				accepted[rec.ID] = tag
			} else if _, known := index[rec.ID]; err == nil && !known {
				t.Fatalf("unknown job %q completed without an error", rec.ID)
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int(ops[i+1])
			w := workers[int(op>>4)%len(workers)]
			switch op & 7 {
			case 0:
				leases = append(leases, tb.Lease(w, 1+arg%2, time.Hour)...)
			case 1:
				asked := map[string]bool{"fake/none": true}
				ids := []string{"fake/none"}
				for k, l := range leases {
					if (arg>>(k%8))&1 == 1 {
						asked[l.ID] = true
						ids = append(ids, l.ID)
					}
				}
				for _, id := range tb.Renew(w, ids, time.Hour) {
					if !asked[id] {
						t.Fatalf("renew reported %q lost, which was never asked about", id)
					}
				}
			case 2, 3:
				// A completion of some job (leased or not, by this worker
				// or not); op 3 reports the wrong seed.
				j := arg % len(plan.Specs)
				if len(leases) > 0 && arg&8 == 0 {
					j = leases[arg%len(leases)].Index
				}
				rec := Record{ID: plan.Specs[j].ID, Status: StatusOK, Seed: plan.SeedOf(j)}
				if op&7 == 3 {
					rec.Seed++
				}
				complete(w, rec)
			case 4:
				complete(w, Record{ID: fmt.Sprintf("fake/unknown-%d", arg), Status: StatusOK})
			case 5:
				tb.Reap(time.Now().Add(2 * time.Hour))
			}

			recs := tb.Records()
			last := -1
			for _, r := range recs {
				k, ok := index[r.ID]
				if !ok || k <= last {
					t.Fatalf("records out of plan order or duplicated at %s: %v", r.ID, recs)
				}
				last = k
				if r.Seed != plan.SeedOf(k) {
					t.Fatalf("record %s at seed %d, plan gives %d", r.ID, r.Seed, plan.SeedOf(k))
				}
				if tg, ok := accepted[r.ID]; ok {
					if r.Attempts != tg {
						t.Fatalf("record %s is completion %d, accepted was %d", r.ID, r.Attempts, tg)
					}
				} else if r.Status != StatusFailed || !strings.Contains(r.Error, "lease expired") {
					t.Fatalf("record %s appeared without an accepted completion: %+v", r.ID, r)
				} else {
					accepted[r.ID] = r.Attempts // a give-up: later completions are duplicates
				}
			}
			select {
			case <-tb.Done():
				if len(recs) != len(plan.Specs) {
					t.Fatalf("done with %d of %d jobs finished", len(recs), len(plan.Specs))
				}
			default:
				if len(recs) == len(plan.Specs) {
					t.Fatal("every job finished but Done is open")
				}
			}
		}
	})
}
