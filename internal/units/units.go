// Package units provides the shared vocabulary of the LSDF codebase:
// byte sizes, data rates, and helpers to format and parse them.
//
// Sizes use binary (IEC) multiples because storage arrays, HDFS block
// sizes and tape capacities in the paper are all specified that way.
// Rates are expressed in bytes per second; network link speeds, which
// vendors quote in decimal bits per second (e.g. "10 GE"), have
// dedicated constructors so that call sites stay unambiguous.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Bytes is a byte count. It is a signed integer so that deltas
// (frees, truncations) can be represented naturally.
type Bytes int64

// Binary (IEC) multiples.
const (
	B   Bytes = 1
	KiB       = 1024 * B
	MiB       = 1024 * KiB
	GiB       = 1024 * MiB
	TiB       = 1024 * GiB
	PiB       = 1024 * TiB
)

// Decimal (SI) multiples, used where the paper quotes decimal figures
// (e.g. "2 TB/day", "1 PB").
const (
	KB Bytes = 1000 * B
	MB       = 1000 * KB
	GB       = 1000 * MB
	TB       = 1000 * GB
	PB       = 1000 * TB
)

// String renders the size with the largest binary unit that keeps the
// mantissa >= 1, e.g. "1.50GiB".
func (b Bytes) String() string {
	abs := b
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= PiB:
		return fmt.Sprintf("%.2fPiB", float64(b)/float64(PiB))
	case abs >= TiB:
		return fmt.Sprintf("%.2fTiB", float64(b)/float64(TiB))
	case abs >= GiB:
		return fmt.Sprintf("%.2fGiB", float64(b)/float64(GiB))
	case abs >= MiB:
		return fmt.Sprintf("%.2fMiB", float64(b)/float64(MiB))
	case abs >= KiB:
		return fmt.Sprintf("%.2fKiB", float64(b)/float64(KiB))
	}
	return fmt.Sprintf("%dB", int64(b))
}

// SI renders the size with the largest decimal unit, e.g. "2.00TB",
// matching how the paper reports facility capacities.
func (b Bytes) SI() string {
	abs := b
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= PB:
		return fmt.Sprintf("%.2fPB", float64(b)/float64(PB))
	case abs >= TB:
		return fmt.Sprintf("%.2fTB", float64(b)/float64(TB))
	case abs >= GB:
		return fmt.Sprintf("%.2fGB", float64(b)/float64(GB))
	case abs >= MB:
		return fmt.Sprintf("%.2fMB", float64(b)/float64(MB))
	case abs >= KB:
		return fmt.Sprintf("%.2fKB", float64(b)/float64(KB))
	}
	return fmt.Sprintf("%dB", int64(b))
}

// suffixes accepted by ParseBytes, longest first so that "KiB" wins
// over "B" during matching.
var byteSuffixes = []struct {
	suffix string
	mult   Bytes
}{
	{"PiB", PiB}, {"TiB", TiB}, {"GiB", GiB}, {"MiB", MiB}, {"KiB", KiB},
	{"PB", PB}, {"TB", TB}, {"GB", GB}, {"MB", MB}, {"KB", KB},
	{"B", B},
}

// ParseBytes parses strings such as "110TB", "64MiB", "4 MB", "512".
// A bare number is a byte count.
func ParseBytes(s string) (Bytes, error) {
	t := strings.TrimSpace(s)
	for _, sf := range byteSuffixes {
		if strings.HasSuffix(t, sf.suffix) {
			num := strings.TrimSpace(strings.TrimSuffix(t, sf.suffix))
			f, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("units: parse %q: %w", s, err)
			}
			return Bytes(f * float64(sf.mult)), nil
		}
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("units: parse %q: %w", s, err)
	}
	return Bytes(n), nil
}

// Rate is a data rate in bytes per second.
type Rate float64

// BytesPerSecond constructs a Rate from a byte count per second.
func BytesPerSecond(b Bytes) Rate { return Rate(b) }

// BitsPerSecond constructs a Rate from a bit rate, as network links are
// quoted (10 Gb/s Ethernet = 1.25e9 B/s).
func BitsPerSecond(bits float64) Rate { return Rate(bits / 8) }

// Gbps constructs a Rate from decimal gigabits per second.
func Gbps(g float64) Rate { return BitsPerSecond(g * 1e9) }

// PerDay constructs a Rate from a byte volume per 24 h, as the paper
// quotes ingest rates ("2 TB/day").
func PerDay(b Bytes) Rate { return Rate(float64(b) / (24 * 3600)) }

// String renders the rate in the most natural decimal unit.
func (r Rate) String() string {
	switch {
	case r >= Rate(GB):
		return fmt.Sprintf("%.2fGB/s", float64(r)/float64(GB))
	case r >= Rate(MB):
		return fmt.Sprintf("%.2fMB/s", float64(r)/float64(MB))
	case r >= Rate(KB):
		return fmt.Sprintf("%.2fKB/s", float64(r)/float64(KB))
	}
	return fmt.Sprintf("%.2fB/s", float64(r))
}

// TimeFor returns how long moving b bytes takes at rate r, to the
// nearest nanosecond. A zero or negative rate yields an infinite-like sentinel of 1<<62 ns
// rather than dividing by zero; callers treat it as "never".
func (r Rate) TimeFor(b Bytes) time.Duration {
	if r <= 0 {
		return time.Duration(1 << 62)
	}
	sec := float64(b) / float64(r)
	return time.Duration(math.Round(sec * float64(time.Second)))
}

// BytesIn returns how many bytes flow in d at rate r.
func (r Rate) BytesIn(d time.Duration) Bytes {
	return Bytes(float64(r) * d.Seconds())
}

// Days is a convenience for expressing multi-day simulated horizons.
func Days(n float64) time.Duration {
	return time.Duration(n * 24 * float64(time.Hour))
}

// Years approximates n years as 365 days each; good enough for the
// paper's capacity-planning horizons.
func Years(n float64) time.Duration { return Days(n * 365) }
