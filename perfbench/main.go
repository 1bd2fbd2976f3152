// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the repository's Go API or a real deadd daemon,
// checks every output against a reference, and prints one JSON result
// line: the end-to-end metrics, or with -trace the per-layer metrics of a
// traced run. See README.md in this directory for the workloads, the
// metrics and the measured noise.
//
//	perfbench -workload suite|profile-heldout|daemon-predeval
//	          -seed n -seconds s -trace 0|1 -deadd path -work dir -refs dir
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

// config is one run's settings. main sets the knobs from Budget on to the
// production-sized run; only tests shrink them.
type config struct {
	Workload  string
	Seed      int64
	Seconds   float64
	Trace     bool
	Deadd     string // path to a built deadd binary
	Work      string // scratch directory for cache dirs
	Refs      string // reference-output directory
	WriteRefs bool   // record references instead of checking them

	Budget int // per-benchmark instruction budget
	Setups int // set-ups per run (0 = the workload's); setup_s is their median
	Pass   int // units per pass of the time-bounded workloads (0 = the workload's)
}

// outcome is what a workload measured. Its times are intervals, which
// run turns into seconds of the reference host (see hostclock.go).
type outcome struct {
	Setups    []interval // each set-up; setup_s is their median
	Passes    []interval // the suite, or each pass; wall_s is their median
	Timed     interval   // the whole timed phase
	Lat       []interval // per-unit latency samples
	Attempted int
	Failed    int
	Unchecked bool    // the units' outputs failed their check: none is good
	PeakRSS   float64 // MB
	Layers    map[string]float64
	Detail    map[string]any
}

// latencyLimitS is the goodput limit in seconds, several times today's
// tail on every workload.
const latencyLimitS = 1.0

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"wall_s", "s"}, {"peak_rss_mb", "MB"}, {"ok_frac", "frac"},
	{"lat_p50_ms", "ms"}, {"lat_tail_ms", "ms"}, {"goodput_rps", "1/s"},
}

// perLayer lists every per-layer metric with its unit. A traced run
// reports all of them; a layer a workload does not exercise reads 0.
var perLayer = func() []struct{ name, unit string } {
	l := []struct{ name, unit string }{
		{"compile.ms_total", "ms"}, {"compile.spills", "count"}, {"compile.hoisted", "count"},
		{"phase.compile_s", "s"},
		{"profile.ms_p50", "ms"}, {"profile.minst_s", "Minst/s"}, {"phase.emulate_s", "s"},
		{"phase.analyze_s", "s"}, {"profile.alloc_mb_p50", "MB"}, {"profile.insts", "count"},
		{"profile.dead_frac", "frac"},
		{"phase.predict_s", "s"}, {"predict.minst_s", "Minst/s"}, {"predeval.exec_ms_p50", "ms"},
		{"predeval.client_ms_p50", "ms"},
		{"phase.simulate_s", "s"}, {"simulate.minst_s", "Minst/s"},
		{"core.preload_s", "s"}, {"phase.coverage", "frac"},
	}
	for _, id := range experimentIDs() {
		l = append(l, struct{ name, unit string }{"core.exp_s." + id, "s"})
	}
	for _, k := range []string{"program", "profile", "predeval", "machine"} {
		l = append(l, struct{ name, unit string }{"artifact." + k + ".builds", "count"},
			struct{ name, unit string }{"artifact." + k + ".hits", "count"})
	}
	l = append(l, []struct{ name, unit string }{
		{"artifact.resident_mb", "MB"}, {"go.alloc_gb", "GB"}, {"go.gc_cycles", "count"},
		{"remote.fetch_ms_p50", "ms"}, {"remote.mb_s", "MB/s"}, {"remote.install_ms_p50", "ms"},
		{"disk.load_ms_p50", "ms"}, {"artifact.profile.verify_failures", "count"},
		{"artifact.predeval.disk_writes", "count"},
		{"server.queue_wait_ms_p95.predeval", "ms"}, {"server.exec_ms_p50.predeval", "ms"},
		{"server.coalesced", "count"}, {"server.shed", "count"}, {"deadd.cpu_ms_per_req", "ms"},
		{"host.probe_ms", "ms"},
	}...)
	for _, layer := range []string{layerEngine, layerCompile, layerProfile, layerRef, layerVerify,
		layerRemote, layerDisk, layerService} {
		l = append(l, struct{ name, unit string }{"self." + layer + "_s", "s"})
	}
	return append(l, []struct{ name, unit string }{
		{"trace.wall_s", "s"}, {"trace.self_sum_frac", "frac"}, {"trace.spans", "count"},
		{"trace.overhead_ms", "ms"},
	}...)
}()

// workloads maps each workload to its run and its number of set-ups per
// run (setup_s is their median). profile-heldout sets up five times: its
// set-up is the one whose runs spread most.
var workloads = map[string]struct {
	run    func(context.Context, config, *tracer) (*outcome, error)
	setups int
}{
	"suite":           {runSuite, 3},
	"profile-heldout": {runHeldout, 5},
	"daemon-predeval": {runDaemonPredeval, 3},
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.Workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.Seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.Seconds, "seconds", 5, "timed-phase length of the time-bounded workloads")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.Deadd, "deadd", "", "path to a built deadd binary")
	flag.StringVar(&cfg.Work, "work", "", "scratch directory (created; emptied per run)")
	flag.StringVar(&cfg.Refs, "refs", "", "reference-output directory")
	flag.BoolVar(&cfg.WriteRefs, "write-refs", false, "record reference outputs instead of checking them")
	flag.Parse()
	cfg.Budget = defaultBudget
	cfg.Trace = traceFlag == 1

	res, detail, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.Encode(map[string]any{"detail": detail})
	enc.Encode(res)
}

// run executes one workload and assembles its result line.
func run(ctx context.Context, cfg config) (*result, map[string]any, error) {
	w, ok := workloads[cfg.Workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.Setups == 0 {
		cfg.Setups = w.setups
	}
	if cfg.Work == "" || cfg.Refs == "" {
		return nil, nil, fmt.Errorf("-work and -refs are required")
	}
	if err := os.RemoveAll(cfg.Work); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(cfg.Work, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(cfg.Work)
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	clock, err := startHostClock()
	if err != nil {
		return nil, nil, err
	}
	out, err := w.run(ctx, cfg, tr)
	if cerr := clock.stop(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	if out.Attempted < 1 {
		return nil, nil, fmt.Errorf("workload %s attempted no units", cfg.Workload)
	}
	if out.Detail == nil {
		out.Detail = map[string]any{}
	}
	vals := endToEndValues(out, clock.norm)
	out.Detail["measured"] = endToEndValues(out, interval.seconds)
	out.Detail["kernel_ms"] = clock.kernelMs()

	res := &result{Correct: out.Failed == 0, Attempted: out.Attempted, Failed: out.Failed, Metrics: map[string]metric{}}
	if cfg.Trace {
		out.Layers["host.probe_ms"] = clock.kernelMs()
		// Same definition as wall_s, so the two runs' difference is the
		// tracing overhead.
		out.Layers["trace.wall_s"] = vals["wall_s"]
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: out.Layers[m.name], Unit: m.unit}
		}
		var extra []string
		for name := range out.Layers {
			if _, ok := res.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		if len(extra) > 0 {
			sort.Strings(extra)
			return nil, nil, fmt.Errorf("per-layer metrics missing from the list: %v", extra)
		}
		return res, out.Detail, nil
	}
	out.Detail["lat_tail"] = tailOf(latencies(out, clock.norm))
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return res, out.Detail, nil
}

// latencies are the units' latencies in ms, sorted, with each interval
// turned into seconds by secs.
func latencies(out *outcome, secs func(interval) float64) []float64 {
	lat := make([]float64, len(out.Lat))
	for i, iv := range out.Lat {
		lat[i] = 1000 * secs(iv)
	}
	slices.Sort(lat)
	return lat
}

// endToEndValues computes the end-to-end metrics, with each interval
// turned into seconds by secs.
func endToEndValues(out *outcome, secs func(interval) float64) map[string]float64 {
	each := func(ivs []interval) []float64 {
		xs := make([]float64, len(ivs))
		for i, iv := range ivs {
			xs[i] = secs(iv)
		}
		return xs
	}
	lat := latencies(out, secs)
	good := 0
	for _, l := range lat {
		if !out.Unchecked && l <= 1000*latencyLimitS {
			good++
		}
	}
	return map[string]float64{
		"setup_s":     median(each(out.Setups)),
		"wall_s":      median(each(out.Passes)),
		"peak_rss_mb": out.PeakRSS,
		"ok_frac":     float64(out.Attempted-out.Failed) / float64(out.Attempted),
		"lat_p50_ms":  quantile(lat, 0.5),
		"lat_tail_ms": tailOf(lat).Value,
		"goodput_rps": float64(good) / secs(out.Timed),
	}
}

// morePasses reports whether a time-bounded workload should start
// another pass: always at least two, then until the run length is spent.
func morePasses(start time.Time, passes int, seconds float64) bool {
	return passes < 2 || time.Since(start).Seconds() < seconds
}

// goStats snapshots this process's cumulative allocation and GC count.
func goStats() (allocGB float64, gcs uint32) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc) / 1e9, m.NumGC
}

// applySelf adds the tracer's per-layer self times from span index from
// on, their share of the timed phase's wall, and the tracer's own cost to
// a traced run's per-layer metrics. innerPhases is the seconds of the repository's own
// leaf phases (reported as phase.*) that ran inside engine spans: they
// are layers of their own, so they come off the engine's self time.
func applySelf(layers map[string]float64, tr *tracer, from int, wall time.Duration, innerPhases float64) {
	byLayer, per := tr.selfTimes(from)
	var sum float64
	for l, d := range byLayer {
		layers["self."+l+"_s"] = d.Seconds()
		sum += d.Seconds()
	}
	layers["self."+layerEngine+"_s"] -= innerPhases
	layers["trace.self_sum_frac"] = sum / wall.Seconds()
	layers["trace.spans"] = float64(len(per))
	layers["trace.overhead_ms"] = ms(spanCost()) * float64(len(per))
}
