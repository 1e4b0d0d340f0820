package sweepd

import (
	"fmt"
	"os"
	"path/filepath"

	"abm/internal/obs"
	"abm/internal/runner"
)

// FileLog and OpenFileLog keep the record log's pre-merge names alive
// for benchmark/probes.go, their only non-test user; the next benchmark
// issue removes them together with the lane shims.
type FileLog = runner.Store

// OpenFileLog opens the record log at path (see runner.OpenLog).
func OpenFileLog(path string) (*FileLog, error) { return runner.OpenLog(path) }

// Store is the coordinator's runner.RecordSink: records commit to a
// runner.Store log in batches (64 records or 200ms, whichever first),
// and worker-shipped telemetry bundles land beside the log.
type Store struct {
	log *runner.Store
	b   *Batcher

	// TelemetryDir, when set, is where PutTelemetry lands worker-shipped
	// bundles — one <job ID>.json.gz per job, the ID sanitized by the
	// rule that names the job's trace (obs.SanitizeID), beside the
	// record log. Empty disables bundle persistence.
	TelemetryDir string
}

// NewStore wraps log with batched commits at the default batch size and
// deadline.
func NewStore(log *runner.Store) *Store {
	return &Store{log: log, b: NewBatcher(log, 0, 0)}
}

// Put implements runner.RecordSink: the record is durable by the next
// batch commit (size- or deadline-triggered, or an explicit Flush).
func (s *Store) Put(rec runner.Record) error { return s.b.Put(rec) }

// Completed implements runner.RecordSink with the log's latest-wins
// replay. Pending records are flushed first so a resume within one
// process never misses its own writes.
func (s *Store) Completed() (map[string]runner.Record, error) {
	if err := s.b.Flush(); err != nil {
		return nil, err
	}
	return s.log.Completed()
}

// PutTelemetry persists one job's gzip-compressed telemetry bundle
// beside the record log (a coordinator with another RecordSink drops
// bundles). A no-op when TelemetryDir is unset. Writes go through a temp file + rename so a
// crash never leaves a truncated bundle under the final name.
func (s *Store) PutTelemetry(id string, data []byte) error {
	if s.TelemetryDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.TelemetryDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(s.TelemetryDir, obs.SanitizeID(id)+".json.gz")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// ReadTelemetry loads one job's persisted bundle, decompressed and
// decoded.
func ReadTelemetry(dir, id string) (*TelemetryBundle, error) {
	data, err := os.ReadFile(filepath.Join(dir, obs.SanitizeID(id)+".json.gz"))
	if err != nil {
		return nil, err
	}
	bundle, err := DecodeTelemetry(data)
	if err != nil {
		return nil, fmt.Errorf("sweepd: telemetry for %s: %w", id, err)
	}
	return bundle, nil
}

// Flush commits everything pending and returns when it is durable.
func (s *Store) Flush() error { return s.b.Flush() }

// Stats returns the batch-commit counters.
func (s *Store) Stats() BatchStats { return s.b.Stats() }

// Close flushes and closes the underlying log.
func (s *Store) Close() error {
	if err := s.b.Close(); err != nil {
		s.log.Close()
		return err
	}
	return s.log.Close()
}
