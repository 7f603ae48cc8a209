package units

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestConstants(t *testing.T) {
	if MiB != 1048576 {
		t.Fatalf("MiB = %d", MiB)
	}
	if TB != 1_000_000_000_000 {
		t.Fatalf("TB = %d", TB)
	}
	if PiB != 1125899906842624 {
		t.Fatalf("PiB = %d", PiB)
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{KiB, "1.00KiB"},
		{4 * MiB, "4.00MiB"},
		{110 * TB, "100.04TiB"},
		{-2 * GiB, "-2.00GiB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestSI(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{2 * TB, "2.00TB"},
		{500 * TB, "500.00TB"},
		{1400 * TB, "1.40PB"},
		{4 * MB, "4.00MB"},
		{999, "999B"},
	}
	for _, c := range cases {
		if got := c.in.SI(); got != c.want {
			t.Errorf("SI(%d) = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want Bytes
	}{
		{"110TB", 110 * TB},
		{"64MiB", 64 * MiB},
		{"4 MB", 4 * MB},
		{"512", 512},
		{"1.5KiB", 1536},
		{" 2PB ", 2 * PB},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if err != nil {
			t.Fatalf("ParseBytes(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseBytesErrors(t *testing.T) {
	for _, in := range []string{"", "abc", "12QB", "--3MB"} {
		if _, err := ParseBytes(in); err == nil {
			t.Errorf("ParseBytes(%q): expected error", in)
		}
	}
}

func TestParseRoundTripQuick(t *testing.T) {
	// Any non-negative byte count formatted as a bare integer parses back
	// to itself.
	f := func(n int64) bool {
		if n < 0 {
			n = -n
		}
		b := Bytes(n)
		got, err := ParseBytes(fmtInt(n))
		return err == nil && got == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func fmtInt(n int64) string {
	// strconv via Sprintf avoided to keep the property independent of
	// the formatting path under test.
	if n == 0 {
		return "0"
	}
	var buf [32]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func TestGbps(t *testing.T) {
	r := Gbps(10)
	if math.Abs(float64(r)-1.25e9) > 1 {
		t.Fatalf("10 Gbps = %f B/s, want 1.25e9", float64(r))
	}
}

func TestTimeFor(t *testing.T) {
	// The paper's arithmetic: 1 PB over an ideal 10 Gb/s link.
	d := Gbps(10).TimeFor(1 * PB)
	days := d.Hours() / 24
	if days < 9.2 || days > 9.3 {
		t.Fatalf("1PB @ 10Gbps = %.3f days, want ~9.26", days)
	}
}

func TestTimeForZeroRate(t *testing.T) {
	if d := Rate(0).TimeFor(GiB); d < time.Duration(1<<61) {
		t.Fatalf("zero rate should be 'never', got %v", d)
	}
}

func TestRateString(t *testing.T) {
	cases := []struct {
		in   Rate
		want string
	}{
		{Rate(1.25e9), "1.25GB/s"},
		{Rate(14e6), "14.00MB/s"},
		{Rate(1500), "1.50KB/s"},
		{Rate(3), "3.00B/s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Rate(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestDaysYears(t *testing.T) {
	if Days(1) != 24*time.Hour {
		t.Fatal("Days(1)")
	}
	if Years(1) != 365*24*time.Hour {
		t.Fatal("Years(1)")
	}
}

func TestTimeForRoundTripQuick(t *testing.T) {
	// The bytes that flow in r.TimeFor(b) at rate r are ~= b for sane
	// magnitudes: within 1e-6 of b for a transfer of 1 ms or more; below
	// that, within what a 1-ns Duration resolves (r·1ns) plus the byte
	// the conversion truncates.
	f := func(megs uint16, mbps uint16) bool {
		b := Bytes(int64(megs)+1) * MiB
		r := Rate(float64(mbps)+1) * Rate(MB)
		d := r.TimeFor(b)
		back := Bytes(float64(r) * d.Seconds())
		if d >= time.Millisecond {
			return math.Abs(float64(back-b)/float64(b)) < 1e-6
		}
		return math.Abs(float64(back-b)) <= float64(r)*1e-9+1
	}
	// 1 MiB at 62.6 GB/s: a 16 µs transfer, the worst case of the domain.
	if !f(0, 62567) {
		t.Error("megs=0, mbps=62567 does not round-trip")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
