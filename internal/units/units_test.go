package units

import (
	"testing"
	"testing/quick"
)

func TestBytesFormatting(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{0, "0 B"},
		{512, "512 B"},
		{-512, "-512 B"},
		{1000, "1.00 KB"},
		{1500, "1.50 KB"},
		{2 * MB, "2.00 MB"},
		{526 * GB, "526.00 GB"},
		{1500 * GB, "1.50 TB"},
		{-3 * GB, "-3.00 GB"},
	}
	for _, c := range cases {
		if got := Bytes(c.n); got != c.want {
			t.Errorf("Bytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestBytesBinaryFormatting(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{0, "0 B"},
		{1024, "1.00 KiB"},
		{192 * GiB, "192.00 GiB"},
		{1536 * MiB, "1.50 GiB"},
		{3 * TiB, "3.00 TiB"},
	}
	for _, c := range cases {
		if got := BytesBinary(c.n); got != c.want {
			t.Errorf("BytesBinary(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"180GB", 180 * GB},
		{"180 GB", 180 * GB},
		{"180gb", 180 * GB},
		{"1.5TB", 1500 * GB},
		{"64KiB", 64 * KiB},
		{"512", 512},
		{"0", 0},
		{"2MiB", 2 * MiB},
		{"3gib", 3 * GiB},
		{"7 tib", 7 * TiB},
		{"100b", 100},
		{"250kb", 250 * KB},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if err != nil {
			t.Errorf("ParseBytes(%q) error: %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseBytesErrors(t *testing.T) {
	for _, in := range []string{"", "GB", "12XB", "abc", "1.2.3GB", "  ",
		"-5GB", "-1", "-0.5 MiB", "99999999999TB"} {
		if _, err := ParseBytes(in); err == nil {
			t.Errorf("ParseBytes(%q) succeeded, want error", in)
		}
	}
}

func TestParseBytesRoundTripsFormatting(t *testing.T) {
	// Whole multiples of each decimal unit must survive a
	// format-then-parse round trip exactly.
	f := func(k uint16) bool {
		n := int64(k%1000) * GB // keep below 1 TB so the GB format stays exact
		got, err := ParseBytes(Bytes(n))
		return err == nil && got == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGBf(t *testing.T) {
	if got := GBf(526 * GB); got != 526 {
		t.Errorf("GBf(526GB) = %v, want 526", got)
	}
	if got := GBf(500 * MB); got != 0.5 {
		t.Errorf("GBf(500MB) = %v, want 0.5", got)
	}
}

func TestSeconds(t *testing.T) {
	if got := Seconds(123.4564); got != "123.456 s" {
		t.Errorf("Seconds = %q", got)
	}
}
