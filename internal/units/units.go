// Package units provides byte-size constants, parsing, and formatting
// helpers shared across the CachedArrays codebase.
//
// The paper reports capacities in decimal units (GB = 1e9 bytes) when
// talking about model footprints and traffic, and hardware ships in binary
// units (GiB = 2^30). Both families are provided; experiment code uses the
// decimal family to match the paper's tables.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Decimal (SI) byte units, as used in the paper's tables and figures.
const (
	KB int64 = 1000
	MB       = 1000 * KB
	GB       = 1000 * MB
	TB       = 1000 * GB
)

// Binary (IEC) byte units, as used for hardware capacities.
const (
	KiB int64 = 1024
	MiB       = 1024 * KiB
	GiB       = 1024 * MiB
	TiB       = 1024 * GiB
)

// Bytes formats n using decimal units with two fractional digits,
// e.g. 526.43 GB. Values below 1 KB are printed as plain bytes.
func Bytes(n int64) string {
	switch {
	case n >= TB || n <= -TB:
		return fmt.Sprintf("%.2f TB", float64(n)/float64(TB))
	case n >= GB || n <= -GB:
		return fmt.Sprintf("%.2f GB", float64(n)/float64(GB))
	case n >= MB || n <= -MB:
		return fmt.Sprintf("%.2f MB", float64(n)/float64(MB))
	case n >= KB || n <= -KB:
		return fmt.Sprintf("%.2f KB", float64(n)/float64(KB))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// BytesBinary formats n using binary units, e.g. 192.00 GiB.
func BytesBinary(n int64) string {
	switch {
	case n >= TiB || n <= -TiB:
		return fmt.Sprintf("%.2f TiB", float64(n)/float64(TiB))
	case n >= GiB || n <= -GiB:
		return fmt.Sprintf("%.2f GiB", float64(n)/float64(GiB))
	case n >= MiB || n <= -MiB:
		return fmt.Sprintf("%.2f MiB", float64(n)/float64(MiB))
	case n >= KiB || n <= -KiB:
		return fmt.Sprintf("%.2f KiB", float64(n)/float64(KiB))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// GBf returns n expressed in (decimal) gigabytes as a float, the unit
// used on the paper's traffic figures.
func GBf(n int64) float64 { return float64(n) / float64(GB) }

// Seconds formats a duration given in (possibly fractional) seconds with
// millisecond resolution, e.g. "123.456 s".
func Seconds(s float64) string { return fmt.Sprintf("%.3f s", s) }

// ParseBytes parses strings like "180GB", "1.5TB", "64KiB", "512", with an
// optional space before the unit. Units are case-insensitive; a bare number
// is bytes. Sizes are capacities and budgets, so a negative one — or one
// past the int64 range — is rejected here rather than reaching a device
// constructor.
func ParseBytes(s string) (int64, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("units: empty size string")
	}
	// Split number prefix from unit suffix.
	i := len(t)
	for j, r := range t {
		if (r < '0' || r > '9') && r != '.' && r != '-' && r != '+' {
			i = j
			break
		}
	}
	numStr := strings.TrimSpace(t[:i])
	unitStr := strings.TrimSpace(strings.ToLower(t[i:]))
	num, err := strconv.ParseFloat(numStr, 64)
	if err != nil {
		return 0, fmt.Errorf("units: bad number in %q: %v", s, err)
	}
	var mult float64
	switch unitStr {
	case "", "b":
		mult = 1
	case "kb":
		mult = float64(KB)
	case "mb":
		mult = float64(MB)
	case "gb":
		mult = float64(GB)
	case "tb":
		mult = float64(TB)
	case "kib":
		mult = float64(KiB)
	case "mib":
		mult = float64(MiB)
	case "gib":
		mult = float64(GiB)
	case "tib":
		mult = float64(TiB)
	default:
		return 0, fmt.Errorf("units: unknown unit %q in %q", unitStr, s)
	}
	if n := num * mult; n >= 0 && n < math.MaxInt64 {
		return int64(n), nil
	}
	return 0, fmt.Errorf("units: size %q is negative or out of range", s)
}
