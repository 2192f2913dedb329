package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBandwidthString(t *testing.T) {
	cases := []struct {
		in   Bandwidth
		want string
	}{
		{GBps(12.1), "12.10 GB/s"},
		{GBps(0), "0.00 GB/s"},
		{GBps(5.018), "5.02 GB/s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Bandwidth(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestParseBandwidth(t *testing.T) {
	cases := []struct {
		in      string
		want    float64
		wantErr bool
	}{
		{"12.5", 12.5, false},
		{"12.5GB/s", 12.5, false},
		{"12.5 GB/s", 12.5, false},
		{"900 MB/s", 0.9, false},
		{"0", 0, false},
		{"-3", 0, true},
		{"garbage", 0, true},
		{"", 0, true},
	}
	for _, c := range cases {
		got, err := ParseBandwidth(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseBandwidth(%q) error = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && math.Abs(got.GBps()-c.want) > 1e-12 {
			t.Errorf("ParseBandwidth(%q) = %v, want %v", c.in, got.GBps(), c.want)
		}
	}
}

func TestBandwidthValid(t *testing.T) {
	if !GBps(5).Valid() || !GBps(0).Valid() {
		t.Error("finite non-negative bandwidths must be valid")
	}
	if GBps(-1).Valid() {
		t.Error("negative bandwidth must be invalid")
	}
	if Bandwidth(math.NaN()).Valid() || Bandwidth(math.Inf(1)).Valid() {
		t.Error("non-finite bandwidth must be invalid")
	}
}

func TestByteSizeString(t *testing.T) {
	cases := []struct {
		in   ByteSize
		want string
	}{
		{64 * MiB, "64 MiB"},
		{2 * GiB, "2 GiB"},
		{KiB, "1 KiB"},
		{1536, "1536 B"}, // 1.5 KiB: not a whole KiB multiple
		{0, "0 B"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("ByteSize(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestParseByteSize(t *testing.T) {
	cases := []struct {
		in      string
		want    ByteSize
		wantErr bool
	}{
		{"64MiB", 64 * MiB, false},
		{"64 MiB", 64 * MiB, false},
		{"64MB", 64 * MiB, false}, // loose decimal form = binary, like the paper's "64 MB"
		{"1GiB", GiB, false},
		{"512B", 512, false},
		{"512", 512, false},
		{"2KiB", 2 * KiB, false},
		{"-1", 0, true},
		{"MiB", 0, true},
		{"", 0, true},
	}
	for _, c := range cases {
		got, err := ParseByteSize(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseByteSize(%q) error = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseByteSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseByteSizeRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		size := ByteSize(raw) * KiB
		parsed, err := ParseByteSize(size.String())
		return err == nil && parsed == size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRateForInvertsTransferTime(t *testing.T) {
	f := func(sizeKiB uint16, tenthGBps uint8) bool {
		if sizeKiB == 0 || tenthGBps == 0 {
			return true
		}
		size := ByteSize(sizeKiB) * KiB
		bw := GBps(float64(tenthGBps) / 10)
		d := Duration(float64(size) / bw.BytesPerSecond())
		back := RateFor(size, d)
		return math.Abs(back.GBps()-bw.GBps()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		in   Duration
		want string
	}{
		{Seconds(1.5), "1.500 s"},
		{Seconds(0.25), "250.000 ms"},
		{Seconds(2e-6), "2.000 µs"},
		{Seconds(3e-9), "3 ns"},
		{Seconds(0), "0.000 s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Duration(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestRateForEdge(t *testing.T) {
	if !math.IsInf(RateFor(MiB, 0).GBps(), 1) {
		t.Error("RateFor with zero duration must be +Inf")
	}
}
