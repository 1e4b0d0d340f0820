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

// PutTelemetry persists one job's gzip-compressed telemetry bundle
// under dir as <job ID>.json.gz, the ID sanitized by the rule that names
// the job's trace (obs.SanitizeID). Writes go through a temp file +
// rename so a crash never leaves a truncated bundle under the final
// name.
func PutTelemetry(dir, id string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, obs.SanitizeID(id)+".json.gz")
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
