package sweepd

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"abm/internal/runner"
)

func testRecord(id string, seed int64) runner.Record {
	return runner.Record{
		ID: id, Experiment: "t", Group: "g", Seed: seed,
		Status: runner.StatusOK, Attempts: 1,
		Result: &runner.Result{Events: uint64(seed) * 10, Extra: map[string]float64{"x": float64(seed)}},
	}
}

// testLog opens a record log under t.TempDir().
func testLog(t *testing.T) *runner.Store {
	t.Helper()
	log, err := runner.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	return log
}

// TestFileLogRoundTrip checks the benchmark's compatibility shim: a log
// written through OpenFileLog is the runner.Store log, append by append.
func TestFileLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenFileLog(filepath.Join(dir, runner.LogName))
	if err != nil {
		t.Fatal(err)
	}
	want := []runner.Record{testRecord("a", 1), testRecord("b", 2), testRecord("c", 3)}
	if err := l.Append(want[:2]); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(want[2:]); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	store, err := runner.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	got, err := store.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want 3", len(got))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Seed != want[i].Seed ||
			got[i].Result == nil || got[i].Result.Events != want[i].Result.Events {
			t.Fatalf("record %d mangled: %+v", i, got[i])
		}
	}
}

// TestFileLogTornTail cuts the final line mid-write — the shape a
// SIGKILL during an append leaves — and checks replay keeps every
// whole record and drops only the torn one.
func TestFileLogTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), runner.LogName)
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]runner.Record{testRecord("a", 1), testRecord("b", 2)}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut inside the final record's JSON.
	if err := os.WriteFile(path, data[:len(data)-15], 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got, err := l2.Replay()
	if err != nil {
		t.Fatalf("torn tail must not fail replay: %v", err)
	}
	if len(got) != 1 || got[0].ID != "a" {
		t.Fatalf("want only record a, got %+v", got)
	}

	// The reopened log healed the tail, so an append lands cleanly.
	if err := l2.Append([]runner.Record{testRecord("c", 3)}); err != nil {
		t.Fatal(err)
	}
	got, err = l2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].ID != "c" {
		t.Fatalf("append after heal: got %+v", got)
	}
}

// TestFileLogMidFileCorruption flips a byte away from the tail: that is
// damage, not a crash artifact, and must be an error.
func TestFileLogMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), runner.LogName)
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append([]runner.Record{testRecord(string(rune('a'+i)), int64(i+1))}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte inside the first line's payload.
	i := strings.IndexByte(string(data), '\t') + 5
	data[i] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := l2.Replay(); err == nil {
		t.Fatal("mid-file corruption replayed silently")
	}
}

// TestStoreCompletedLatestWins checks a coordinator resuming from the
// record log resolves duplicates the way the log's replay does: the
// latest entry for a job decides, and only ok records resume. Job 0
// failed and then succeeded on retry, so it resumes; job 1 succeeded
// and a later failure superseded it, so it runs again.
func TestStoreCompletedLatestWins(t *testing.T) {
	full, err := (&runner.Pool{Workers: 2}).Run(t.Context(), syntheticPlan("latest", 4, nil))
	if err != nil {
		t.Fatal(err)
	}
	failed := func(rec runner.Record) runner.Record {
		rec.Status, rec.Result, rec.Error = runner.StatusFailed, nil, "boom"
		return rec
	}
	store := testLog(t)
	for _, rec := range []runner.Record{failed(full[0]), full[0], full[1], failed(full[1])} {
		if err := store.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	var calls atomic.Int64
	c, err := NewCoordinator(Config{Plan: syntheticPlan("latest", 4, &calls), TableConfig: runner.TableConfig{Store: store}})
	if err != nil {
		t.Fatal(err)
	}
	runWorkers(t, c, 2)
	if n := calls.Load(); n != 3 {
		t.Fatalf("resume ran %d jobs, want 3 (all but job 0)", n)
	}
	recs := c.Table().Records()
	if !recs[0].Cached {
		t.Fatal("job 0's retry succeeded but it did not resume")
	}
	if recs[1].Cached || recs[1].Status != runner.StatusOK {
		t.Fatalf("job 1's later failure did not supersede its success: %+v", recs[1])
	}
	if got, want := aggBytes(t, recs), aggBytes(t, full); got != want {
		t.Fatalf("resumed aggregate differs\nwant:\n%s\ngot:\n%s", want, got)
	}
}
