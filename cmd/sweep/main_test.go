package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"abm/internal/runner"
	"abm/internal/sweepd"
)

// sweep drives the CLI in-process and returns its exit status, stdout
// and stderr.
func sweep(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestDryRunMatchesParent pins grid expansion — job IDs and derived
// seeds — to the job list the pre-merge cmd/sweep printed for the same
// flags (testdata/dryrun-scenario.golden was captured from that binary).
func TestDryRunMatchesParent(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"dryrun-scenario.golden", []string{"-scenario", "../../scenarios/mixed-rate-10g25g.json",
			"-vary", "switch.bm=DT,ABM", "-vary", "workload.load=0.4,0.8", "-reps", "2", "-seed", "42"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		code, got, stderr := sweep(t, append([]string{"run", "-dry-run"}, tc.args...)...)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", tc.golden, code, stderr)
		}
		if got != string(want) {
			t.Errorf("%s: job list differs\ngot:\n%s\nwant:\n%s", tc.golden, got, want)
		}
	}
}

// TestRunResumeStatus runs a real grid, refuses a fresh run into the
// same directory, resumes it with every job served from the log and a
// byte-identical aggregate, and reads the log back with status -out.
func TestRunResumeStatus(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	out := filepath.Join(t.TempDir(), "out")
	args := []string{"run", "-scenario", "../../examples/incast/scenario.json",
		"-vary", "switch.bm=DT,ABM", "-vary", "duration=250us", "-reps", "2",
		"-workers", "2", "-out", out}
	aggregate := func() []byte {
		data, err := os.ReadFile(filepath.Join(out, "aggregate.json"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	code, table, stderr := sweep(t, args...)
	if code != 0 {
		t.Fatalf("run: exit %d: %s", code, stderr)
	}
	first := aggregate()
	if code, _, stderr := sweep(t, args...); code != 2 || !strings.Contains(stderr, "-resume") {
		t.Fatalf("fresh run into an existing log: exit %d, want 2 asking for -resume: %s", code, stderr)
	}
	code, resumedTable, stderr := sweep(t, append(args, "-resume")...)
	if code != 0 {
		t.Fatalf("run -resume: exit %d: %s", code, stderr)
	}
	if !strings.Contains(stderr, "4 ok (4 from log), 0 failed") {
		t.Errorf("resume did not serve every job from the log:\n%s", stderr)
	}
	if !bytes.Equal(aggregate(), first) || resumedTable != table {
		t.Error("resumed run's aggregate differs from the first run's")
	}

	code, status, stderr := sweep(t, "status", "-out", out)
	if code != 0 {
		t.Fatalf("status: exit %d: %s", code, stderr)
	}
	for _, want := range []string{
		fmt.Sprintf("sweep %q: 4 jobs — 0 pending, 0 leased, 4 done (0 failed)  [finished]", out),
		"sweep/switch.bm=ABM,duration=250us",
		"sweep/switch.bm=DT,duration=250us",
		"2/2 ok, settled",
	} {
		if !strings.Contains(status, want) {
			t.Errorf("status -out lacks %q:\n%s", want, status)
		}
	}
}

// TestStatusOnFiguresDir reads the committed log of `sweep run -fig all
// -scale small -seed 42 -out results`: offline status works for figure
// runs as for grids.
func TestStatusOnFiguresDir(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "results", "records.log"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "records.log"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	jobs := bytes.Count(data, []byte("\n"))
	code, status, stderr := sweep(t, "status", "-out", dir)
	if code != 0 {
		t.Fatalf("status: exit %d: %s", code, stderr)
	}
	header := fmt.Sprintf(": %d jobs — 0 pending, 0 leased, %d done (0 failed)  [finished]\n", jobs, jobs)
	if !strings.Contains(status, header) {
		t.Errorf("status header does not count %d finished jobs:\n%s", jobs, status)
	}
	for _, fig := range []string{"fig5sim/", "fig6/", "extracc/"} {
		if !strings.Contains(status, "\n  "+fig) {
			t.Errorf("status lacks %s groups:\n%s", fig, status)
		}
	}
}

// TestFigureResumeReseeds runs fig12 at seed 1, then at seed 2 with
// -resume into the same directory: the changed seed must re-run every
// cell instead of serving the seed-1 records, so the table matches a
// fresh seed-2 run. A third run resumes with nothing to simulate and
// re-renders the same table.
func TestFigureResumeReseeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	dir := t.TempDir()
	figure := func(out string, args ...string) []byte {
		t.Helper()
		args = append([]string{"run", "-fig", "fig12", "-workers", "2", "-out", filepath.Join(dir, out)}, args...)
		if code, _, stderr := sweep(t, args...); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr)
		}
		data, err := os.ReadFile(filepath.Join(dir, out, "fig12.tsv"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	seed1 := figure("reused", "-seed", "1")
	resumed := figure("reused", "-seed", "2", "-resume")
	fresh := figure("fresh", "-seed", "2")
	if !bytes.Equal(resumed, fresh) {
		t.Fatalf("-seed 2 -resume over a seed-1 log:\n%s\nfresh seed-2 run:\n%s", resumed, fresh)
	}
	if bytes.Equal(seed1, fresh) {
		t.Fatal("seed 1 and seed 2 tables are identical; the test cannot tell them apart")
	}
	code, _, stderr := sweep(t, "run", "-fig", "fig12", "-seed", "2", "-resume", "-out", filepath.Join(dir, "fresh"))
	if code != 0 || !strings.Contains(stderr, "5 ok (5 from log)") {
		t.Fatalf("second resume: exit %d, want every cell from the log: %s", code, stderr)
	}
	if again, _ := os.ReadFile(filepath.Join(dir, "fresh", "fig12.tsv")); !bytes.Equal(again, fresh) {
		t.Fatal("table re-rendered from the log differs")
	}
}

// TestGridInputErrors: run and serve share one grid resolution, which
// needs a base scenario and rejects plan keys the grid does not know —
// a retired cell-mode plan or a typo fails naming the key instead of
// silently running a different grid. `run -fig` rejects grid flags,
// and -scale without -fig, instead of ignoring them.
func TestGridInputErrors(t *testing.T) {
	dir := t.TempDir()
	plan := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := "../../examples/incast/scenario.json"
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of stderr; "" means the grid resolves
	}{
		{"no scenario", nil, "-save-scenario base.json"},
		{"vary without scenario", []string{"-vary", "switch.bm=DT,ABM"}, "-save-scenario base.json"},
		{"cell-mode plan", []string{"-plan", plan("cells.json", `{"bms":["DT"],"loads":[0.4]}`)}, `unknown field "bms"`},
		{"typo", []string{"-plan", plan("typo.json", `{"scenario":"`+base+`","vray":[]}`)}, `unknown field "vray"`},
		{"plan without scenario", []string{"-plan", plan("bare.json", `{"name":"x"}`)}, "-save-scenario base.json"},
		{"good plan", []string{"-plan", plan("good.json",
			`{"scenario":"`+base+`","vary":[{"path":"switch.bm","values":["DT","ABM"]}]}`)}, ""},
		{"good flags", []string{"-scenario", base, "-vary", "switch.bm=DT,ABM"}, ""},
		{"fig with vary", []string{"-fig", "fig6", "-vary", "switch.bm=DT"}, "-vary applies to grids"},
		{"fig with reps", []string{"-fig", "fig6", "-reps", "3"}, "-reps applies to grids"},
		{"scale without fig", []string{"-scenario", base, "-scale", "medium"}, "only with -fig"},
		{"unknown fig", []string{"-fig", "fig99"}, `unknown figure "fig99"`},
		{"good fig", []string{"-fig", "fig6,fig12", "-scale", "medium", "-scenario", base}, ""},
	} {
		for _, sub := range []string{"run", "serve"} {
			args := append([]string{sub}, tc.args...)
			if sub == "run" {
				args = append(args, "-dry-run")
			} else if tc.want == "" || strings.Contains(tc.name, "fig") {
				continue // a resolvable serve grid would start serving; serve has no -fig or -scale
			}
			code, _, stderr := sweep(t, args...)
			switch {
			case tc.want == "" && code != 0:
				t.Errorf("%s %s: exit %d: %s", sub, tc.name, code, stderr)
			case tc.want != "" && (code != 2 || !strings.Contains(stderr, tc.want)):
				t.Errorf("%s %s: exit %d, want 2 naming %q: %s", sub, tc.name, code, tc.want, stderr)
			}
		}
	}
}

// TestServeCapsShardedWorkers: serve's in-process workers obey the
// same shard cap as run's. At GOMAXPROCS 2 and 2 shards per job, three
// requested workers cap to one, the cap is logged, and only local-0
// ever leases a job.
func TestServeCapsShardedWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	code, _, stderr := sweep(t, "serve", "-scenario", "../../examples/incast/scenario.json",
		"-vary", "switch.bm=DT,ABM", "-vary", "duration=250us", "-shards", "2",
		"-workers", "3", "-addr", "127.0.0.1:0", "-out", t.TempDir())
	if code != 0 {
		t.Fatalf("serve: exit %d: %s", code, stderr)
	}
	for _, want := range []string{"capping workers 3 -> 1", "1 in-process workers", "-> local-0", "2 ok (0 from log)"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("serve log lacks %q:\n%s", want, stderr)
		}
	}
	if strings.Contains(stderr, "-> local-1") {
		t.Errorf("a capped-away worker leased a job:\n%s", stderr)
	}
}

// syncBuffer is a bytes.Buffer a running serve may write while the
// test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeCommitsEachRecord pins serve's commit rule, the one `sweep
// run` keeps: a record a remote worker completes is in records.log,
// visible to a fresh store's Replay, by the time Complete returns.
func TestServeCommitsEachRecord(t *testing.T) {
	out := t.TempDir()
	var stdout bytes.Buffer
	var stderr syncBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"serve", "-scenario", "../../examples/incast/scenario.json",
			"-vary", "switch.bm=DT,ABM", "-workers", "0", "-quiet", "-addr", "127.0.0.1:0", "-out", out}, &stdout, &stderr)
	}()
	listening := regexp.MustCompile(`listening on (\S+),`)
	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == ""; time.Sleep(5 * time.Millisecond) {
		if m := listening.FindStringSubmatch(stderr.String()); m != nil {
			addr = m[1]
		}
		select {
		case code := <-exit:
			t.Fatalf("serve exited %d before listening: %s", code, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve never listened: %s", stderr.String())
		}
	}

	client := sweepd.NewClient(addr)
	for n := 1; n <= 2; n++ {
		resp, err := client.Lease("w", 1)
		if err != nil || len(resp.Leases) != 1 {
			t.Fatalf("lease %d: %v %+v", n, err, resp)
		}
		l := resp.Leases[0]
		rec := runner.Record{ID: l.ID, Seed: l.Seed, Status: runner.StatusOK, Attempts: 1, Result: &runner.Result{}}
		if err := client.Complete("w", rec, nil); err != nil {
			t.Fatal(err)
		}
		store, err := runner.OpenStore(out)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := store.Replay()
		store.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != n || recs[n-1].ID != l.ID {
			t.Fatalf("after completing %d records the log holds %d: %+v", n, len(recs), recs)
		}
	}
	if code := <-exit; code != 0 {
		t.Fatalf("serve: exit %d: %s", code, stderr.String())
	}
}

// TestServeRejectsCITargetWithPerJobFiles: adaptive extras re-run their
// group's first spec, so with a per-job telemetry path they would
// overwrite that spec's file. serve refuses the pair at startup,
// naming both flags.
func TestServeRejectsCITargetWithPerJobFiles(t *testing.T) {
	for _, flag := range []string{"-trace-events", "-trace-chrome", "-counters", "-hist-snapshots"} {
		code, _, stderr := sweep(t, "serve", "-scenario", "../../examples/incast/scenario.json",
			"-ci-target", "0.05", flag, t.TempDir(), "-addr", "127.0.0.1:0", "-out", t.TempDir())
		if code != 2 || !strings.Contains(stderr, "-ci-target") || !strings.Contains(stderr, flag) {
			t.Errorf("serve -ci-target %s: exit %d, want 2 naming both flags: %s", flag, code, stderr)
		}
	}
}

func TestUnknownSubcommand(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus"}, {"-bms", "DT"}} {
		if code, _, _ := sweep(t, args...); code != 2 {
			t.Errorf("sweep %q: exit %d, want 2", args, code)
		}
	}
	if code, _, stderr := sweep(t, "status", "-out", t.TempDir()); code != 2 {
		t.Errorf("status on a directory without a log: exit %d, want 2: %s", code, stderr)
	}
}
