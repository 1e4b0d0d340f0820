package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
)

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec := Record{
		ID: "sweep/0001-bm=ABM", Experiment: "sweep", Group: "bm=ABM",
		Seed: 99, Status: StatusOK, Attempts: 1, WallMS: 12.5,
		Config: map[string]any{"BM": "ABM"},
		Result: &Result{Events: 1234, Extra: map[string]float64{"x": 1}},
	}
	if err := st.Put(rec); err != nil {
		t.Fatal(err)
	}
	done, err := st.Completed()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := done[rec.ID]
	if !ok {
		t.Fatalf("record not found; have %v", done)
	}
	if got.Seed != 99 || got.Result == nil || got.Result.Events != 1234 || got.Result.Extra["x"] != 1 {
		t.Fatalf("round trip mangled record: %+v", got)
	}
	// The bytes on disk are the record log's frame, byte for byte, so
	// logs written by the old "sweepd serve" still resume.
	payload, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, LogName))
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%08x\t%s\n", crc32.ChecksumIEEE(payload), payload); string(data) != want {
		t.Fatalf("log bytes:\n%q\nwant:\n%q", data, want)
	}
}

func TestStoreFailedNotCompleted(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put(Record{ID: "a", Status: StatusFailed, Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	done, err := st.Completed()
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 {
		t.Fatalf("failed record treated as completed: %v", done)
	}
	// A later successful attempt supersedes the failure.
	if err := st.Put(Record{ID: "a", Status: StatusOK, Result: &Result{}}); err != nil {
		t.Fatal(err)
	}
	if done, _ = st.Completed(); len(done) != 1 {
		t.Fatalf("ok record not visible: %v", done)
	}
	// And a later failure supersedes the success: the latest entry for
	// a job decides.
	if err := st.Put(Record{ID: "a", Status: StatusFailed, Error: "late"}); err != nil {
		t.Fatal(err)
	}
	if done, _ = st.Completed(); len(done) != 0 {
		t.Fatalf("later failure did not supersede the success: %v", done)
	}
}

// TestStoreDamage replays what a crash or a damaged disk can leave in
// the log. A torn final line — a kill mid-write — is dropped (its job
// re-runs) while every whole record before it resumes, and the reopened
// store heals the tail so the next append starts on its own line
// instead of merging with the fragment into mid-file garbage. Damage
// anywhere before the tail is corruption and must be an error, never a
// silent skip.
func TestStoreDamage(t *testing.T) {
	ids := []string{"a", "b", "c"}
	cases := []struct {
		name   string
		damage func(data []byte, lines []string) []byte
		want   []string // nil: replay must fail
	}{
		{"torn inside the final record", func(data []byte, _ []string) []byte {
			return data[:len(data)-15]
		}, []string{"a", "b"}},
		{"final newline missing", func(data []byte, _ []string) []byte {
			return data[:len(data)-1]
		}, []string{"a", "b"}},
		{"torn first and only line", func(_ []byte, lines []string) []byte {
			return []byte(lines[0][:len(lines[0])/2])
		}, []string{}},
		{"flipped byte mid-file", func(data []byte, lines []string) []byte {
			data[len(lines[0])+20] ^= 0xff
			return data
		}, nil},
		{"garbage line mid-file", func(_ []byte, lines []string) []byte {
			return []byte(lines[0] + "{broken\n" + lines[2])
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				if err := st.Put(Record{ID: id, Status: StatusOK, Result: &Result{}}); err != nil {
					t.Fatal(err)
				}
			}
			st.Close()
			path := filepath.Join(dir, LogName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
			lines[2] += "\n"
			if err := os.WriteFile(path, tc.damage(data, lines), 0o644); err != nil {
				t.Fatal(err)
			}

			st2, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			done, err := st2.Completed()
			if tc.want == nil {
				if err == nil {
					t.Fatalf("damage before the tail replayed silently: %v", done)
				}
				return
			}
			if err != nil {
				t.Fatalf("torn tail must not fail resume: %v", err)
			}
			if got := sortedIDs(done); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("resumed %v, want %v", got, tc.want)
			}
			if err := st2.Put(Record{ID: "z", Status: StatusOK, Result: &Result{}}); err != nil {
				t.Fatal(err)
			}
			done, err = st2.Completed()
			if err != nil {
				t.Fatalf("append after heal: %v", err)
			}
			if got := sortedIDs(done); !reflect.DeepEqual(got, append(tc.want, "z")) {
				t.Fatalf("append after heal: resumed %v, want %v + z", got, tc.want)
			}
		})
	}
}

// TestStoreTornManifestTail replays what a crash mid-append leaves
// behind: the final log line is a partial write. The torn tail must be
// dropped (its job re-runs) while every fully-appended record before it
// resumes, and corruption anywhere *else* in the log must be an error
// rather than a silent skip.
func TestStoreTornManifestTail(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		if err := st.Put(Record{ID: id, Status: StatusOK, Result: &Result{}}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	path := filepath.Join(dir, LogName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("log lines = %d, want 3", len(lines))
	}

	// Crash replay: the last entry is cut mid-line, no trailing newline.
	torn := lines[0] + lines[1] + lines[2][:len(lines[2])/2]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	done, err := st2.Completed()
	if err != nil {
		t.Fatalf("torn tail must not fail resume: %v", err)
	}
	if len(done) != 2 {
		t.Fatalf("resumed %d records, want 2 (torn tail dropped): %v", len(done), done)
	}
	for _, id := range []string{"a", "b"} {
		if _, ok := done[id]; !ok {
			t.Fatalf("record %q lost: %v", id, done)
		}
	}

	// A fully-terminated garbage line mid-file is corruption, not a torn
	// append (appends are single line+newline writes), and must surface.
	bad := lines[0] + "{broken\n" + lines[2]
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Completed(); err == nil {
		t.Fatal("mid-file corruption silently skipped")
	}
}

// TestStoreTornTailThenAppend proves a store reopened over a torn tail
// keeps working: OpenStore truncates the fragment, so the next append
// starts on its own line instead of merging with the torn bytes into
// one unparseable (and now mid-file, so fatal) garbage line.
func TestStoreTornTailThenAppend(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(Record{ID: "a", Status: StatusOK, Result: &Result{}}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	path := filepath.Join(dir, LogName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the only line, then append a fresh record through a reopened
	// store.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if err := st2.Put(Record{ID: "b", Status: StatusOK, Result: &Result{}}); err != nil {
		t.Fatal(err)
	}
	done, err := st2.Completed()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := done["b"]; !ok || len(done) != 1 {
		t.Fatalf("want exactly {b}, got %v", done)
	}
}

func sortedIDs(done map[string]Record) []string {
	ids := []string{}
	for id := range done {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func TestPoolResumeFromManifest(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	var fixed atomic.Bool // flips the injected failure off for the resume sweep
	build := func() *Plan {
		plan := &Plan{Name: "resume", Seed: 5}
		for i := 0; i < 12; i++ {
			plan.Add(Spec{Experiment: "resume", Run: fakeJob(&calls)})
		}
		// Job 7 fails until "fixed".
		inner := plan.Specs[7].Run
		plan.Specs[7].Run = func(ctx context.Context, seed int64) (Result, error) {
			if !fixed.Load() {
				return Result{}, errors.New("transient infrastructure failure")
			}
			return inner(ctx, seed)
		}
		return plan
	}

	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := (&Pool{Workers: 4, Store: st}).Run(context.Background(), build())
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if len(Failed(recs)) != 1 || recs[7].Status != StatusFailed {
		t.Fatalf("first sweep: %+v", Failed(recs))
	}
	firstCalls := calls.Load()
	if firstCalls != 11 {
		t.Fatalf("first sweep calls = %d, want 11", firstCalls)
	}

	// Second sweep: completed jobs come from the log, only the
	// failed one re-runs (and now succeeds).
	fixed.Store(true)
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	recs2, err := (&Pool{Workers: 4, Store: st2}).Run(context.Background(), build())
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load() - firstCalls; n != 1 {
		t.Fatalf("resume re-ran %d jobs, want 1", n)
	}
	cached := 0
	for i, r := range recs2 {
		if !r.OK() {
			t.Fatalf("record %d: %+v", i, r)
		}
		if r.Cached {
			cached++
		}
		if r.Seed != recs[i].Seed {
			t.Fatalf("resume changed seed of job %d: %d vs %d", i, r.Seed, recs[i].Seed)
		}
	}
	if cached != 11 {
		t.Fatalf("cached = %d, want 11", cached)
	}
}

// FuzzRecordLog appends random batches to the record log, then damages
// its bytes. A truncation at any offset must replay as a prefix of what
// was appended (a torn tail); a single flipped byte as a prefix or an
// error (damage before the tail); never as a record that was not
// appended. After a reopen heals a truncated log, new appends replay.
func FuzzRecordLog(f *testing.F) {
	// Seed corpus: testdata/fuzz/FuzzRecordLog.
	f.Fuzz(func(t *testing.T, ops []byte, cut uint16, mask byte) {
		if len(ops) > 8 { // every offset is replayed: keep the log small
			ops = ops[:8]
		}
		if mask == 0 {
			mask = 0xff
		}
		path := filepath.Join(t.TempDir(), LogName)
		st, err := OpenLog(path)
		if err != nil {
			t.Fatal(err)
		}
		// Each op byte appends one record to the pending batch; its high
		// bit (or the last op) commits the batch as one Append.
		var appended, batch []Record
		for i, b := range ops {
			rec := Record{ID: fmt.Sprintf("job/%d", b%8), Seed: int64(i), Status: StatusOK,
				Attempts: int(b >> 4), WallMS: float64(b) / 3}
			if b&0x08 != 0 {
				rec.Status, rec.Error = StatusFailed, fmt.Sprintf("boom\n\t%q", b)
			}
			batch = append(batch, rec)
			if b&0x80 != 0 || i == len(ops)-1 {
				if err := st.Append(batch); err != nil {
					t.Fatal(err)
				}
				appended, batch = append(appended, batch...), nil
			}
		}
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
		st.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		for k := 0; k <= len(data); k++ {
			got, err := decodeLog(path, data[:k])
			if err != nil {
				t.Fatalf("truncated at %d/%d: %v", k, len(data), err)
			}
			requirePrefix(t, fmt.Sprintf("truncated at %d", k), got, appended)
		}
		for i := range data {
			flipped := bytes.Clone(data)
			flipped[i] ^= mask
			if got, err := decodeLog(path, flipped); err == nil {
				requirePrefix(t, fmt.Sprintf("byte %d ^ %#x", i, mask), got, appended)
			}
		}

		k := int(cut) % (len(data) + 1)
		if err := os.WriteFile(path, data[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		st2, err := OpenLog(path)
		if err != nil {
			t.Fatal(err)
		}
		defer st2.Close()
		extra := Record{ID: "after-heal", Status: StatusOK, Attempts: 1}
		if err := st2.Put(extra); err != nil {
			t.Fatal(err)
		}
		got, err := st2.Replay()
		if err != nil {
			t.Fatalf("replay after heal at %d: %v", k, err)
		}
		want, _ := decodeLog(path, data[:bytes.LastIndexByte(data[:k], '\n')+1])
		if want = append(want, extra); !reflect.DeepEqual(got, want) {
			t.Fatalf("after heal at %d: replayed %+v, want %+v", k, got, want)
		}
	})
}

// requirePrefix fails unless got is a prefix of appended.
func requirePrefix(t *testing.T, what string, got, appended []Record) {
	t.Helper()
	if len(got) > len(appended) {
		t.Fatalf("%s: replayed %d records, only %d appended", what, len(got), len(appended))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], appended[i]) {
			t.Fatalf("%s: record %d replayed as %+v, appended %+v", what, i, got[i], appended[i])
		}
	}
}
