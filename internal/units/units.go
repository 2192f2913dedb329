// Package units provides the value types shared by every subsystem:
// bandwidths, byte sizes and simulated durations.
//
// Bandwidths are the central quantity of the reproduced paper; they are
// stored as float64 GB/s (decimal gigabytes, matching the paper's plots)
// wrapped in a named type so that formatting, parsing and comparisons with
// tolerance live in one place.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// BytesPerGB is the decimal gigabyte used throughout the paper (GB/s axes).
const BytesPerGB = 1e9

// Bandwidth is a data rate in GB/s (decimal). The zero value means "no
// bandwidth" and is valid.
type Bandwidth float64

// GBps constructs a Bandwidth from a GB/s value.
func GBps(v float64) Bandwidth { return Bandwidth(v) }

// GBps reports the bandwidth as a plain float64 in GB/s.
func (b Bandwidth) GBps() float64 { return float64(b) }

// BytesPerSecond reports the bandwidth in bytes per second.
func (b Bandwidth) BytesPerSecond() float64 { return float64(b) * BytesPerGB }

// Valid reports whether the bandwidth is finite and non-negative.
func (b Bandwidth) Valid() bool {
	f := float64(b)
	return !math.IsNaN(f) && !math.IsInf(f, 0) && f >= 0
}

// String renders the bandwidth the way the paper's plots label it,
// e.g. "12.10 GB/s".
func (b Bandwidth) String() string {
	return fmt.Sprintf("%.2f GB/s", float64(b))
}

// ParseBandwidth parses strings such as "12.5", "12.5GB/s", "12.5 GB/s",
// "900 MB/s". It accepts GB/s and MB/s suffixes (decimal).
func ParseBandwidth(s string) (Bandwidth, error) {
	t := strings.TrimSpace(s)
	scale := 1.0
	switch {
	case trimSuffixFold(&t, "gb/s"):
	case trimSuffixFold(&t, "mb/s"):
		scale = 1e-3
	}
	t = strings.TrimSpace(t)
	v, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return 0, fmt.Errorf("units: parse bandwidth %q: %w", s, err)
	}
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("units: parse bandwidth %q: negative or non-finite", s)
	}
	return Bandwidth(v * scale), nil
}

// ByteSize is an amount of data in bytes.
type ByteSize int64

// Common sizes. The paper's benchmark receives 64 MiB messages; we keep the
// binary units for sizes (matching the "64 MB" message of §IV-A1, which is
// 64 MiB in the reference implementation).
const (
	KiB ByteSize = 1 << 10
	MiB ByteSize = 1 << 20
	GiB ByteSize = 1 << 30
)

// Bytes reports the size as an int64 byte count.
func (s ByteSize) Bytes() int64 { return int64(s) }

// String renders a human-readable size such as "64 MiB" or "512 B".
func (s ByteSize) String() string {
	switch {
	case s >= GiB && s%GiB == 0:
		return fmt.Sprintf("%d GiB", s/GiB)
	case s >= MiB && s%MiB == 0:
		return fmt.Sprintf("%d MiB", s/MiB)
	case s >= KiB && s%KiB == 0:
		return fmt.Sprintf("%d KiB", s/KiB)
	default:
		return fmt.Sprintf("%d B", int64(s))
	}
}

// ParseByteSize parses "64MiB", "64 MiB", "1GiB", "512B", plain integers
// (bytes), and the loose decimal forms "64MB"/"1GB" used casually by the
// paper (interpreted as binary units, matching the reference benchmark).
// trimSuffixFold strips an ASCII suffix case-insensitively, in place.
// Byte-indexed (never through strings.ToLower, whose output can be longer
// than its input on invalid UTF-8).
func trimSuffixFold(t *string, suffix string) bool {
	s := *t
	if len(s) < len(suffix) || !strings.EqualFold(s[len(s)-len(suffix):], suffix) {
		return false
	}
	*t = s[:len(s)-len(suffix)]
	return true
}

func ParseByteSize(s string) (ByteSize, error) {
	t := strings.TrimSpace(s)
	mult := ByteSize(1)
	switch {
	case trimSuffixFold(&t, "gib"), trimSuffixFold(&t, "gb"):
		mult = GiB
	case trimSuffixFold(&t, "mib"), trimSuffixFold(&t, "mb"):
		mult = MiB
	case trimSuffixFold(&t, "kib"), trimSuffixFold(&t, "kb"):
		mult = KiB
	case trimSuffixFold(&t, "b"):
	}
	v, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("units: parse byte size %q: %w", s, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("units: parse byte size %q: negative", s)
	}
	if mult > 1 && v > int64(math.MaxInt64)/int64(mult) {
		return 0, fmt.Errorf("units: parse byte size %q: overflows", s)
	}
	return ByteSize(v) * mult, nil
}

// Duration is simulated time in seconds. Simulated time is a float64 because
// fluid-flow simulation produces event times from bandwidth divisions; it is
// unrelated to wall-clock time.Duration.
type Duration float64

// Seconds constructs a Duration from seconds.
func Seconds(v float64) Duration { return Duration(v) }

// Seconds reports the duration in seconds.
func (d Duration) Seconds() float64 { return float64(d) }

// Valid reports whether the duration is finite and non-negative.
func (d Duration) Valid() bool {
	f := float64(d)
	return !math.IsNaN(f) && !math.IsInf(f, 0) && f >= 0
}

// String renders the duration with an adaptive unit (s, ms, µs, ns).
func (d Duration) String() string {
	v := float64(d)
	switch {
	case v >= 1 || v == 0:
		return fmt.Sprintf("%.3f s", v)
	case v >= 1e-3:
		return fmt.Sprintf("%.3f ms", v*1e3)
	case v >= 1e-6:
		return fmt.Sprintf("%.3f µs", v*1e6)
	default:
		return fmt.Sprintf("%.0f ns", v*1e9)
	}
}

// RateFor reports the bandwidth that moves size bytes in d seconds.
func RateFor(size ByteSize, d Duration) Bandwidth {
	if d <= 0 {
		return Bandwidth(math.Inf(1))
	}
	return Bandwidth(float64(size) / BytesPerGB / float64(d))
}
