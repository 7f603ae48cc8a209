package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// midmean is the mean of xs without its lowest and highest quarter
// (of five rounds: the middle three). Like the median it ignores one
// wild round on either side, but it uses more than one round, which
// matters when the rounds drift: ingest-durable slows down as its
// store grows, a faster start means a slower end, and the middle round
// alone repeated within 10-13 % where the midmean repeats within 3-8 %.
func midmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	trim := len(s) / 4
	if len(s) >= 3 && trim == 0 {
		trim = 1
	}
	s = s[trim : len(s)-trim]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// noise is the round-to-round spread with the drift taken out: the
// quartile distance of the residuals about the least-squares line
// through the rounds, as a share of the median. Without removing the
// line, a workload whose rounds drift would always look too noisy to
// compare.
func noise(xs []float64) float64 {
	n := float64(len(xs))
	m := median(xs)
	if n < 3 || m == 0 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i, y := range xs {
		x := float64(i)
		sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	slope := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	icept := (sy - slope*sx) / n
	res := make([]float64, len(xs))
	for i, y := range xs {
		res[i] = y - (icept + slope*float64(i))
	}
	return (quantile(res, 0.75) - quantile(res, 0.25)) / math.Abs(m)
}

// spread is the quartile distance of xs as a share of their median,
// with no drift removed: the noise of values that have no order in
// time to drift along, like the repeated set-ups, whose first one may
// be far off and would tilt a line through them.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 3 || m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(m)
}

// valueNoise is the run-internal noise behind an end-to-end value.
func valueNoise(metric string, v metricValue) float64 {
	if metric == "setup_s" {
		return spread(v.Rounds)
	}
	return noise(v.Rounds)
}

func durationsToMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// cpuTime is this process's user+system CPU so far. It counts what the
// process ran, not what the hypervisor let it run, so a neighbour's
// noise moves it far less than it moves wall-clock numbers.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}
