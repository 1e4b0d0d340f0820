// Package units defines the physical quantities used throughout the
// simulator: simulated time, link rates, and byte counts.
//
// Time is measured in integer picoseconds. At picosecond resolution the
// serialization time of a single byte is exact for every realistic link
// rate (1 byte at 400 Gb/s is 20 ps), so repeated rate conversions never
// accumulate rounding drift. An int64 of picoseconds covers about 106
// days of simulated time, far beyond any experiment in this repository.
package units

import (
	"fmt"
	"math/bits"
)

// Time is a simulated instant or duration in picoseconds.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Microseconds returns t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t == 0:
		return "0s"
	case t%Second == 0:
		return fmt.Sprintf("%ds", t/Second)
	case t >= Millisecond || t <= -Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond || t <= -Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond || t <= -Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// ByteCount is an amount of data in bytes.
type ByteCount int64

// Common sizes.
const (
	Byte     ByteCount = 1
	Kilobyte           = 1000 * Byte
	Megabyte           = 1000 * Kilobyte
	Gigabyte           = 1000 * Megabyte
	KiB                = 1024 * Byte
	MiB                = 1024 * KiB
)

// Bits returns the number of bits in b.
func (b ByteCount) Bits() int64 { return int64(b) * 8 }

// String formats the byte count with an adaptive unit.
func (b ByteCount) String() string {
	switch {
	case b >= Gigabyte:
		return fmt.Sprintf("%.2fGB", float64(b)/float64(Gigabyte))
	case b >= Megabyte:
		return fmt.Sprintf("%.2fMB", float64(b)/float64(Megabyte))
	case b >= Kilobyte:
		return fmt.Sprintf("%.2fKB", float64(b)/float64(Kilobyte))
	default:
		return fmt.Sprintf("%dB", int64(b))
	}
}

// Rate is a data rate in bits per second.
type Rate int64

// Common rates.
const (
	BitPerSecond  Rate = 1
	KilobitPerSec      = 1000 * BitPerSecond
	MegabitPerSec      = 1000 * KilobitPerSec
	GigabitPerSec      = 1000 * MegabitPerSec
)

// Gbps returns the rate as floating-point gigabits per second.
func (r Rate) Gbps() float64 { return float64(r) / float64(GigabitPerSec) }

// String formats the rate with an adaptive unit.
func (r Rate) String() string {
	switch {
	case r >= GigabitPerSec:
		return fmt.Sprintf("%.2fGbps", float64(r)/float64(GigabitPerSec))
	case r >= MegabitPerSec:
		return fmt.Sprintf("%.2fMbps", float64(r)/float64(MegabitPerSec))
	case r >= KilobitPerSec:
		return fmt.Sprintf("%.2fKbps", float64(r)/float64(KilobitPerSec))
	default:
		return fmt.Sprintf("%dbps", int64(r))
	}
}

// mulDiv computes a*b/c with a 128-bit intermediate, panicking on overflow
// of the final result or division by zero. All arguments must be
// non-negative.
func mulDiv(a, b, c int64) int64 {
	if c <= 0 {
		panic("units: division by non-positive value")
	}
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi >= uint64(c) {
		panic("units: mulDiv overflow")
	}
	q, _ := bits.Div64(hi, lo, uint64(c))
	return int64(q)
}

// mulDivCeil is mulDiv rounding up.
func mulDivCeil(a, b, c int64) int64 {
	if c <= 0 {
		panic("units: division by non-positive value")
	}
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi >= uint64(c) {
		panic("units: mulDiv overflow")
	}
	q, rem := bits.Div64(hi, lo, uint64(c))
	if rem != 0 {
		q++
	}
	return int64(q)
}

// TxTime returns the serialization time of n bytes at rate r, rounded up
// to the next picosecond (transmission cannot finish early). It panics if
// r is not positive or n is negative.
func (r Rate) TxTime(n ByteCount) Time {
	if n < 0 {
		panic("units: negative byte count")
	}
	return Time(mulDivCeil(n.Bits(), int64(Second), int64(r)))
}

// PsPerByte returns the serialization time of one byte at rate r and
// whether it is a whole number of picoseconds. When it is, n bytes take
// exactly n times as long — TxTime's ceiling never rounds — which holds
// for every standard Ethernet rate (1/10/25/40/50/100/200/400 Gb/s).
func (r Rate) PsPerByte() (Time, bool) {
	const psBitsPerSecond = 8 * int64(Second)
	if r <= 0 || psBitsPerSecond%int64(r) != 0 {
		return 0, false
	}
	return Time(psBitsPerSecond / int64(r)), true
}

// TxClock converts packet sizes into serialization times at one rate.
// It is what a transmitter holds instead of a bare Rate: built once per
// rate change, it answers per packet with a single multiply when the
// rate's per-byte time is exact and falls back to Rate.TxTime's 128-bit
// divide when it is not. Both paths return Rate.TxTime's value exactly.
type TxClock struct {
	rate      Rate
	psPerByte Time // 0: not a whole number of ps, use rate.TxTime
}

// NewTxClock returns the clock for rate r.
func NewTxClock(r Rate) TxClock {
	ps, _ := r.PsPerByte()
	if ps >= 1<<32 {
		ps = 0 // below ~2 kb/s: keep TxTime's overflow check
	}
	return TxClock{rate: r, psPerByte: ps}
}

// Rate returns the rate the clock was built for.
func (c TxClock) Rate() Rate { return c.rate }

// TxTime returns c.Rate().TxTime(n).
func (c TxClock) TxTime(n ByteCount) Time {
	// One unsigned compare rejects negative n (TxTime panics on it) and
	// bounds the product below 2^63 given psPerByte < 2^32.
	if c.psPerByte != 0 && uint64(n) < 1<<31 {
		return Time(n) * c.psPerByte
	}
	return c.rate.TxTime(n)
}

// BytesOver returns the number of whole bytes transmitted over duration d
// at rate r.
func (r Rate) BytesOver(d Time) ByteCount {
	if d < 0 {
		panic("units: negative duration")
	}
	return ByteCount(mulDiv(int64(d), int64(r), int64(Second)) / 8)
}

// RateOf returns the average rate that transfers n bytes in duration d.
// A zero duration yields zero to keep callers branch-free when a
// measurement interval is degenerate.
func RateOf(n ByteCount, d Time) Rate {
	if d <= 0 {
		return 0
	}
	return Rate(mulDiv(n.Bits(), int64(Second), int64(d)))
}

// BDP returns the bandwidth-delay product of rate r over duration d,
// in bytes (rounded down).
func BDP(r Rate, d Time) ByteCount { return r.BytesOver(d) }

// MinTime returns the smaller of two times.
func MinTime(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// MaxTime returns the larger of two times.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// MinBytes returns the smaller of two byte counts.
func MinBytes(a, b ByteCount) ByteCount {
	if a < b {
		return a
	}
	return b
}

// MaxBytes returns the larger of two byte counts.
func MaxBytes(a, b ByteCount) ByteCount {
	if a > b {
		return a
	}
	return b
}
