package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// runSuite runs E1–E21 on a fresh in-memory workspace at one pool worker.
// Set-up is Workspace.Preload on a fresh workspace, repeated; the last
// preloaded workspace runs the suite. The untraced run calls
// RunExperiments as cmd/experiments does; the traced run calls
// RunExperiment once per experiment, in order, to time each one. Latency
// is per machine simulation, read from the collector's progress lines:
// simulation is 70% of suite time and its 209 runs are units of similar
// cost, while whole experiments differ a thousandfold. A run fails if it
// did not read one latency per simulate span the collector counted.
func runSuite(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	out := &outcome{Layers: map[string]float64{}, Detail: map[string]any{}}
	refPath := refsPath(cfg, "suite")
	refs, err := loadRefs(refPath)
	if err != nil {
		return nil, err
	}
	sims := &simRecorder{}
	var e *engine
	for i := 0; i < cfg.Setups; i++ {
		e = nil
		runtime.GC()
		e = newEngine(cfg.Budget, 1, tr, sims)
		t0 := time.Now()
		if err := e.preload(ctx); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
		out.Setups = append(out.Setups, since(t0))
	}
	sims.reset()
	runtime.GC()
	pid := os.Getpid()
	resetPeakRSS(pid)

	ids := experimentIDs()
	from := tr.mark()
	ph0 := e.phases()
	alloc0, gc0 := goStats()
	t0 := time.Now()
	var got []expOutcome
	if cfg.Trace {
		for i, id := range ids {
			got = append(got, e.runExperiment(ctx, id, i))
		}
	} else {
		got = e.runExperiments(ctx, ids)
	}
	vid := tr.start(noSpan, layerVerify, "digests", -1)
	digests := map[string]string{}
	for _, g := range got {
		out.Attempted++
		switch {
		case g.Err != nil:
			out.Failed++
			fmt.Fprintf(os.Stderr, "suite: %s: %v\n", g.ID, g.Err)
		case !cfg.WriteRefs && refs[g.ID] != g.Digest:
			out.Failed++
			fmt.Fprintf(os.Stderr, "suite: %s: render digest %s, want %q\n", g.ID, g.Digest, refs[g.ID])
		}
		digests[g.ID] = g.Digest
	}
	tr.stop(vid)
	wall := time.Since(t0)
	out.Timed = since(t0)
	out.Passes = []interval{out.Timed}
	out.Lat = sims.samples()
	if out.PeakRSS, err = peakRSSMB(pid); err != nil {
		return nil, err
	}
	ph1 := e.phases()
	spans := ph1["simulate"].Count - ph0["simulate"].Count
	if int64(len(out.Lat)) != spans {
		return nil, fmt.Errorf("read %d simulation latencies from the collector's progress lines, want its %d simulate spans", len(out.Lat), spans)
	}
	// The latency unit is a simulation, so goodput counts simulations
	// within the limit; no simulation is counted if an experiment failed
	// its check, since a simulation's outputs are checked only through
	// its experiment's digest.
	out.Unchecked = out.Failed > 0
	if cfg.WriteRefs {
		if err := saveRefs(refPath, digests); err != nil {
			return nil, err
		}
	}
	out.Detail["simulations"] = len(out.Lat)
	out.Detail["simulate_spans"] = spans
	if !cfg.Trace {
		return out, nil
	}

	l := out.Layers
	var inner float64
	for _, p := range leafPhases {
		d := ph1[p].Seconds - ph0[p].Seconds
		inner += d
		l["phase."+p+"_s"] = d
	}
	if d := ph1["predict"].Seconds - ph0["predict"].Seconds; d > 0 {
		l["predict.minst_s"] = float64(ph1["predict"].Insts-ph0["predict"].Insts) / d / 1e6
	}
	if d := ph1["simulate"].Seconds - ph0["simulate"].Seconds; d > 0 {
		l["simulate.minst_s"] = float64(ph1["simulate"].Insts-ph0["simulate"].Insts) / d / 1e6
	}
	l["phase.coverage"] = inner / wall.Seconds()
	l["compile.ms_total"] = ph1["compile"].Seconds * 1000
	var preloads []float64
	for _, iv := range out.Setups {
		preloads = append(preloads, iv.seconds())
	}
	l["core.preload_s"] = median(preloads)
	for i, d := range tr.durations(from, layerEngine, "") {
		l["core.exp_s."+ids[i]] = d.Seconds()
	}
	facts, err := e.suiteFacts()
	if err != nil {
		return nil, err
	}
	l["compile.spills"], l["compile.hoisted"] = float64(facts.Spills), float64(facts.Hoisted)
	l["profile.insts"] = float64(facts.Insts)
	l["profile.dead_frac"] = float64(facts.Dead) / float64(facts.Insts)
	kinds, resident := e.artifactStats()
	for k, s := range kinds {
		l["artifact."+k+".builds"], l["artifact."+k+".hits"] = float64(s.Builds), float64(s.Hits)
	}
	l["artifact.resident_mb"] = float64(resident) / (1 << 20)
	alloc1, gc1 := goStats()
	l["go.alloc_gb"], l["go.gc_cycles"] = alloc1-alloc0, float64(gc1-gc0)
	applySelf(l, tr, from, wall, inner)
	return out, nil
}

// simLine matches a collector progress line of a simulate span and
// captures its wall seconds (the line is "phase detail 1.234s [rate]
// +alloc").
var simLine = regexp.MustCompile(`^simulate\s.*\s(\d+\.\d+)s(?:\s+[\d.]+ Minst/s)?\s+\+\S+\s*$`)

// simRecorder collects simulate spans from the collector's progress
// lines, each as the interval of its duration that ends when its line is
// written. Spans end on pool goroutines, so writes are locked.
type simRecorder struct {
	mu  sync.Mutex
	lat []interval
}

func (r *simRecorder) Write(p []byte) (int, error) {
	if m := simLine.FindSubmatch(p); m != nil {
		if s, err := strconv.ParseFloat(string(m[1]), 64); err == nil {
			r.mu.Lock()
			r.lat = append(r.lat, ending(time.Duration(s*float64(time.Second))))
			r.mu.Unlock()
		}
	}
	return len(p), nil
}

func (r *simRecorder) reset() {
	r.mu.Lock()
	r.lat = nil
	r.mu.Unlock()
}

func (r *simRecorder) samples() []interval {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]interval(nil), r.lat...)
}

// refsPath names a reference file for one workload at the run's budget.
func refsPath(cfg config, name string) string {
	return filepath.Join(cfg.Refs, fmt.Sprintf("%s-b%d.json", name, cfg.Budget))
}

// loadRefs reads a reference file of unit → digest; a missing file is an
// empty set, against which every unit fails.
func loadRefs(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return map[string]string{}, nil
	}
	if err != nil {
		return nil, err
	}
	var m map[string]string
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

func saveRefs(path string, m map[string]string) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
