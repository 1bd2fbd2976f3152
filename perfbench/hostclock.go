package main

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The host this benchmark runs on is shared: for minutes at a time it can
// run every kind of work here 1.5–2.5 times slower, with no steal time
// reported, and no run length the benchmark can afford averages that out.
// So every time and rate the benchmark reports is expressed in seconds of
// a reference host: a sampler measures how long a fixed kernel takes,
// throughout the run, and a measured interval counts each of its moments
// at refKernelMs / (the kernel's time at that moment). On a host whose
// kernel time is refKernelMs, normalized and measured times are equal;
// the measured times are reported beside them in the detail line.
//
// The kernel's time is its wall time less the time its thread waited on
// a run queue, so the benchmark's own threads taking the CPU from it do
// not count as a slow host: only what slows a thread the guest kernel has
// on a CPU does (other tenants on the same cores and caches, the
// hypervisor taking the CPU, reported as steal or not). It is small
// enough to stay in a core's private caches and allocates nothing.

// refKernelMs is the kernel's time on the reference host: its usual
// time on the 2-CPU host the benchmark's bounds were measured on.
const refKernelMs = 1.3

// samplePeriod is the time between kernel samples.
const samplePeriod = 40 * time.Millisecond

// smoothSamples is the width of the running median over kernel times. A
// median, not a mean: a sample the Go runtime stopped part-way (a
// stop-the-world pause of the benchmark's own collector) reads several
// times too long, and is not the host.
const smoothSamples = 25

// kernelInput is the kernel's fixed input: 8192 pseudo-random words.
var kernelInput = func() []uint64 {
	xs := make([]uint64, 8192)
	x := uint64(88172645463325252)
	for i := range xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		xs[i] = x
	}
	return xs
}()

// kernel sorts a copy of kernelInput into buf and folds it into a
// checksum, twice; the result keeps the work from being optimized away.
func kernel(buf []uint64) uint64 {
	var sum uint64
	for r := 0; r < 2; r++ {
		copy(buf, kernelInput)
		buf[r] ^= sum
		slices.Sort(buf)
		for i, v := range buf {
			sum += bits.RotateLeft64(v, i&63)
		}
	}
	return sum
}

// runQueueWait is the calling thread's time spent waiting on a run queue
// so far, the second field of /proc/thread-self/schedstat.
func runQueueWait(f *os.File) (time.Duration, error) {
	var b [64]byte
	n, err := f.ReadAt(b[:], 0)
	if err != nil && err != io.EOF {
		return 0, err
	}
	fs := strings.Fields(string(b[:n]))
	if len(fs) < 2 {
		return 0, fmt.Errorf("malformed schedstat %q", b[:n])
	}
	ns, err := strconv.ParseInt(fs[1], 10, 64)
	return time.Duration(ns), err
}

// hostClock samples the kernel's time in the background from start until
// stop.
type hostClock struct {
	mu   sync.Mutex
	at   []time.Time // when each sample ended
	took []float64   // the kernel's time per sample, ms
	sink uint64
	err  error

	quit chan struct{}
	done chan struct{}

	smoothed []float64 // filled by stop
}

// startHostClock starts sampling and returns after the first sample.
func startHostClock() (*hostClock, error) {
	h := &hostClock{quit: make(chan struct{}), done: make(chan struct{})}
	ready := make(chan struct{})
	go h.sample(ready)
	<-ready
	if h.err != nil {
		<-h.done
		return nil, h.err
	}
	return h, nil
}

func (h *hostClock) sample(ready chan<- struct{}) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer close(h.done)
	f, err := os.Open("/proc/thread-self/schedstat")
	if err != nil {
		h.err = err
		close(ready)
		return
	}
	defer f.Close()
	buf := make([]uint64, len(kernelInput))
	t := time.NewTicker(samplePeriod)
	defer t.Stop()
	for first := true; ; first = false {
		// The wall interval encloses both reads of the wait, so a wait
		// that ends between them is inside it too.
		t0 := time.Now()
		w0, err := runQueueWait(f)
		h.sink += kernel(buf)
		w1, err1 := runQueueWait(f)
		t1 := time.Now()
		if err = errors.Join(err, err1); err != nil {
			h.err = err
		} else {
			h.mu.Lock()
			h.at = append(h.at, t1)
			h.took = append(h.took, ms(t1.Sub(t0)-(w1-w0)))
			h.mu.Unlock()
		}
		if first {
			close(ready)
		}
		if h.err != nil {
			return
		}
		select {
		case <-h.quit:
			return
		case <-t.C:
		}
	}
}

// stop ends sampling after one more period, so that every interval
// measured before it has samples on both sides, and smooths the series.
func (h *hostClock) stop() error {
	time.Sleep(samplePeriod)
	close(h.quit)
	<-h.done
	if h.err != nil {
		return fmt.Errorf("host clock: %w", h.err)
	}
	h.smoothed = make([]float64, len(h.took))
	for i := range h.took {
		lo, hi := max(0, i-smoothSamples/2), min(len(h.took), i+smoothSamples/2+1)
		h.smoothed[i] = median(h.took[lo:hi])
	}
	return nil
}

// kernelMs is the median smoothed kernel time over the whole run.
func (h *hostClock) kernelMs() float64 { return median(h.smoothed) }

// norm is iv in seconds of the reference host: each sample stands for
// the moments nearer to it than to its neighbours, and counts them at
// refKernelMs / its smoothed kernel time. Call it after stop.
func (h *hostClock) norm(iv interval) float64 {
	var s float64
	for i, at := range h.at {
		lo, hi := iv.a, iv.b
		if i > 0 {
			if mid := h.at[i-1].Add(at.Sub(h.at[i-1]) / 2); mid.After(lo) {
				lo = mid
			}
		}
		if i+1 < len(h.at) {
			if mid := at.Add(h.at[i+1].Sub(at) / 2); mid.Before(hi) {
				hi = mid
			}
		}
		if hi.After(lo) {
			s += hi.Sub(lo).Seconds() * refKernelMs / h.smoothed[i]
		}
	}
	return s
}

// interval is a measured stretch of time.
type interval struct{ a, b time.Time }

func since(a time.Time) interval { return interval{a, time.Now()} }

// ending is the interval of length d that ends now.
func ending(d time.Duration) interval {
	b := time.Now()
	return interval{b.Add(-d), b}
}

func (iv interval) seconds() float64 { return iv.b.Sub(iv.a).Seconds() }
