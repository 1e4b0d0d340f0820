package trace

import (
	"bytes"
	"strings"
	"testing"

	"abm/internal/metrics"
	"abm/internal/units"
)

func TestWriteFlows(t *testing.T) {
	flows := []metrics.FlowRecord{
		{ID: 2, Class: metrics.ClassIncast, Size: 1000, Start: 5 * units.Microsecond,
			End: 15 * units.Microsecond, Ideal: 5 * units.Microsecond, Finished: true},
		{ID: 1, Class: metrics.ClassWebSearch, Size: 2000, Start: units.Microsecond, Finished: false},
	}
	var buf bytes.Buffer
	if err := WriteFlows(&buf, flows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want header + 2", len(lines))
	}
	// Sorted by start: flow 1 first.
	if !strings.HasPrefix(lines[1], "1\twebsearch") {
		t.Fatalf("first row = %q", lines[1])
	}
	if !strings.Contains(lines[2], "incast") || !strings.Contains(lines[2], "2.00") {
		t.Fatalf("second row = %q (want slowdown 2.00)", lines[2])
	}
	// Unfinished flows report zero FCT.
	if !strings.Contains(lines[1], "\tfalse") {
		t.Fatalf("unfinished flag missing: %q", lines[1])
	}
}
