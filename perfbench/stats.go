package main

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	slices.Sort(out)
	return out
}

// quantile interpolates linearly between order statistics of sorted xs
// (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

func medianDur(ds []time.Duration) float64 { return quantile(sortedMs(ds), 0.5) }

// tail is the highest percentile with at least ten samples beyond it: the
// eleventh-largest sample. It returns the value, the percentile it sits
// at, and the sample count. With ten samples or fewer it falls back to
// the maximum.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
}

func tailOf(sorted []float64) tail {
	n := len(sorted)
	if n == 0 {
		return tail{}
	}
	if n <= 10 {
		return tail{Value: sorted[n-1], Percentile: 100, Samples: n}
	}
	return tail{Value: sorted[n-11], Percentile: 100 * float64(n-10) / float64(n), Samples: n}
}

// procStatus reads one "kB" field of /proc/<pid>/status, in megabytes.
func procStatusMB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) { return procStatusMB(pid, "VmHWM") }

// resetPeakRSS lowers the high-water mark to the current RSS, so the peak
// that follows belongs to the timed phase. Best effort: a kernel that
// refuses leaves the mark (and the reported peak) higher, never lower.
func resetPeakRSS(pid int) {
	_ = os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// cpuTime is a process's user+system CPU time so far.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesized and may contain spaces; fields
	// resume after the last ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, s := range f[11:13] { // utime, stime (fields 14 and 15)
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	const clockTicks = 100 // USER_HZ, fixed at 100 on Linux
	return time.Duration(ticks) * time.Second / clockTicks, nil
}
