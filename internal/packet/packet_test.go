package packet

import (
	"strings"
	"testing"
	"unsafe"
)

// TestLayout pins the cache-line split the forwarding path relies on:
// every per-hop field — the FIFO link and EnqAt included — in the
// first 64 bytes, the INT slices starting the second, 128 bytes in all
// (a 64-byte-aligned size class).
func TestLayout(t *testing.T) {
	var p Packet
	if got := unsafe.Sizeof(p); got != 128 {
		t.Fatalf("sizeof(Packet) = %d, want 128", got)
	}
	if got := unsafe.Offsetof(p.Hops); got != 64 {
		t.Fatalf("Hops at offset %d, want 64", got)
	}
	for name, end := range map[string]uintptr{
		"SentAt": unsafe.Offsetof(p.SentAt) + unsafe.Sizeof(p.SentAt),
		"next":   unsafe.Offsetof(p.next) + unsafe.Sizeof(p.next),
		"EnqAt":  unsafe.Offsetof(p.EnqAt) + unsafe.Sizeof(p.EnqAt),
	} {
		if end > 64 {
			t.Errorf("%s ends at %d, past the first 64 bytes", name, end)
		}
	}
}

func TestSize(t *testing.T) {
	p := &Packet{Payload: 1440}
	if p.Size() != 1500 {
		t.Fatalf("Size = %v, want 1500", p.Size())
	}
	ack := &Packet{Flags: FlagACK}
	if ack.Size() != HeaderBytes {
		t.Fatalf("ACK size = %v, want header only", ack.Size())
	}
}

func TestFlagOps(t *testing.T) {
	p := &Packet{}
	p.Set(FlagCE | FlagECT)
	if !p.Is(FlagCE) || !p.Is(FlagECT) {
		t.Fatal("flags not set")
	}
	if !p.Is(FlagCE | FlagECT) {
		t.Fatal("combined Is failed")
	}
	if p.Is(FlagACK) {
		t.Fatal("unset flag reported set")
	}
	p.Clear(FlagCE)
	if p.Is(FlagCE) {
		t.Fatal("Clear failed")
	}
	if !p.Is(FlagECT) {
		t.Fatal("Clear removed unrelated flag")
	}
}

func TestTrim(t *testing.T) {
	p := &Packet{Payload: 1440}
	p.Trim()
	if p.Payload != 0 {
		t.Fatal("payload not removed")
	}
	if !p.Is(FlagTrimmed) {
		t.Fatal("trimmed flag not set")
	}
	if p.Size() != HeaderBytes {
		t.Fatal("trimmed packet should be header-only")
	}
}

func TestString(t *testing.T) {
	p := &Packet{FlowID: 7, Src: 1, Dst: 2, Seq: 100, Payload: 1440}
	if !strings.Contains(p.String(), "DATA") || !strings.Contains(p.String(), "flow=7") {
		t.Fatalf("String = %q", p.String())
	}
	a := &Packet{Flags: FlagACK, AckNo: 5}
	if !strings.Contains(a.String(), "ACK") {
		t.Fatalf("String = %q", a.String())
	}
}
