package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// The short mode below runs every workload path at a reduced budget and
// unit count: set-up, timed phase, verification, traced run and the
// output schema. It needs a deadd binary, built once per test binary.

const shortBudget = 30_000

var deaddPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	deaddPath = filepath.Join(dir, "deadd")
	cmd := exec.Command("go", "build", "-o", deaddPath, "repro/cmd/deadd")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		panic("building deadd: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func shortConfig(t *testing.T, workload, refs string) config {
	return config{
		Workload: workload, Seed: 7, Seconds: 0, Deadd: deaddPath,
		Work: filepath.Join(t.TempDir(), "work"), Refs: refs,
		Budget: shortBudget, Setups: 2, Pass: 4,
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]struct{ name, unit string }{endToEnd, perLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) || seen[m.name] {
				t.Errorf("bad or repeated metric %q unit %q", m.name, m.unit)
			}
			seen[m.name] = true
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
}

// checkSchema runs one workload and checks its result line round-trips
// as JSON with exactly the expected metric names, each with a unit.
func checkSchema(t *testing.T, cfg config) *result {
	t.Helper()
	res, _ := checkSchemaDetail(t, cfg)
	return res
}

// checkSchemaDetail is checkSchema that also returns the run's detail.
func checkSchemaDetail(t *testing.T, cfg config) (*result, map[string]any) {
	t.Helper()
	res, detail, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", cfg.Workload, cfg.Trace, err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]json.RawMessage
	if err := json.Unmarshal(b, &back); err != nil || len(back) != 4 {
		t.Fatalf("result %s: want exactly correct/attempted/failed/metrics", b)
	}
	want := endToEnd
	if cfg.Trace {
		want = perLayer
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, want %d", cfg.Workload, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.name]
		if !ok || got.Unit != m.unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", cfg.Workload, m.name, got, m.unit)
		}
	}
	if res.Attempted < 1 {
		t.Errorf("%s: attempted %d", cfg.Workload, res.Attempted)
	}
	return res, detail
}

func requireOK(t *testing.T, res *result) {
	t.Helper()
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
	if v, ok := res.Metrics["ok_frac"]; ok && v.Value != 1 {
		t.Fatalf("ok_frac %v", v.Value)
	}
}

func TestShortWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range []string{"profile-heldout", "daemon-predeval"} {
		t.Run(w, func(t *testing.T) {
			cfg := shortConfig(t, w, t.TempDir())
			requireOK(t, checkSchema(t, cfg))
			cfg.Trace = true
			res := checkSchema(t, cfg)
			requireOK(t, res)
			if res.Metrics["trace.spans"].Value == 0 {
				t.Errorf("traced run recorded no spans")
			}
			if w == "daemon-predeval" && res.Metrics["remote.fetch_ms_p50"].Value == 0 {
				t.Errorf("traced daemon run did not probe the artifact tiers")
			}
		})
	}
}

// TestSuiteAndFlippedDigest records suite references at the short budget,
// checks a run against them, then flips one digest: that experiment must
// fail and drive ok_frac below 1.
func TestSuiteAndFlippedDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the suite")
	}
	refs := t.TempDir()
	cfg := shortConfig(t, "suite", refs)
	cfg.WriteRefs = true
	requireOK(t, checkSchema(t, cfg))
	cfg.WriteRefs = false
	res, detail := checkSchemaDetail(t, cfg)
	requireOK(t, res)
	// Every simulate span the collector counted must have left one
	// latency sample; run fails otherwise, and zero would be vacuous.
	if n, spans := detail["simulations"].(int), detail["simulate_spans"].(int64); n == 0 || int64(n) != spans {
		t.Errorf("%d simulation latencies for %d simulate spans", n, spans)
	}
	if g := res.Metrics["goodput_rps"].Value * res.Metrics["wall_s"].Value; g < 1 {
		t.Errorf("goodput counts %.1f simulations", g)
	}

	traced := cfg
	traced.Trace = true
	res = checkSchema(t, traced)
	requireOK(t, res)
	for _, id := range experimentIDs() {
		if res.Metrics["core.exp_s."+id].Value <= 0 {
			t.Errorf("traced run has no time for %s", id)
		}
	}
	if f := res.Metrics["trace.self_sum_frac"].Value; f < 0.95 || f > 1.05 {
		t.Errorf("layer self times cover %.3f of the traced wall", f)
	}

	path := refsPath(cfg, "suite")
	m, err := loadRefs(path)
	if err != nil {
		t.Fatal(err)
	}
	m["e7"] = "0" + m["e7"][1:]
	if err := saveRefs(path, m); err != nil {
		t.Fatal(err)
	}
	res = checkSchema(t, cfg)
	if res.Correct || res.Failed != 1 || res.Metrics["ok_frac"].Value >= 1 {
		t.Fatalf("flipped digest: correct=%v failed=%d ok_frac=%v", res.Correct, res.Failed, res.Metrics["ok_frac"].Value)
	}
}

// TestHeldoutFlippedDigest does the same for a held-out summary digest.
func TestHeldoutFlippedDigest(t *testing.T) {
	refs := t.TempDir()
	cfg := shortConfig(t, "profile-heldout", refs)
	cfg.WriteRefs = true
	requireOK(t, checkSchema(t, cfg))
	cfg.WriteRefs = false
	path := refsPath(cfg, "heldout-seed7")
	m, err := loadRefs(path)
	if err != nil {
		t.Fatal(err)
	}
	for k := range m {
		m[k] = "x"
		break
	}
	if err := saveRefs(path, m); err != nil {
		t.Fatal(err)
	}
	res := checkSchema(t, cfg)
	if res.Correct || res.Metrics["ok_frac"].Value >= 1 {
		t.Fatalf("flipped digest: correct=%v ok_frac=%v", res.Correct, res.Metrics["ok_frac"].Value)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	got := tailOf(xs)
	if got.Value != 90 || got.Percentile != 90 || got.Samples != 100 {
		t.Errorf("tail of 1..100 = %+v, want 90 at p90", got)
	}
	if q := quantile(xs, 0.5); q != 50.5 {
		t.Errorf("median of 1..100 = %v", q)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Layer: "a", Start: 0, End: 100, Parent: noSpan},
		{Layer: "b", Start: 10, End: 40, Parent: 0},
		{Layer: "b", Start: 30, End: 60, Parent: 0},
	}
	by, per := tr.selfTimes(0)
	if by["a"] != 50 || by["b"] != 60 || per[0] != 50 {
		t.Errorf("self times %v %v", by, per)
	}
}

// TestHostClockNorm checks the normalization on a made-up series: a
// second at the reference speed, then a second at half of it.
func TestHostClockNorm(t *testing.T) {
	t0 := time.Now()
	h := &hostClock{}
	for i := 0; i < 20; i++ {
		took := refKernelMs
		if i >= 10 {
			took = 2 * refKernelMs
		}
		h.at = append(h.at, t0.Add(time.Duration(i)*100*time.Millisecond+50*time.Millisecond))
		h.smoothed = append(h.smoothed, took)
	}
	for _, c := range []struct {
		a, b time.Duration
		want float64
	}{
		{0, time.Second, 1},
		{time.Second, 2 * time.Second, 0.5},
		{500 * time.Millisecond, 1500 * time.Millisecond, 0.75},
		{-time.Second, 0, 1},                             // before the first sample: its speed
		{2500 * time.Millisecond, 3 * time.Second, 0.25}, // after the last
	} {
		if got := h.norm(interval{t0.Add(c.a), t0.Add(c.b)}); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("norm [%v, %v] = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestHostClockLive samples the real kernel for a moment.
func TestHostClockLive(t *testing.T) {
	h, err := startHostClock()
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	time.Sleep(5 * samplePeriod)
	iv := since(t0)
	if err := h.stop(); err != nil {
		t.Fatal(err)
	}
	if len(h.took) < 3 || h.kernelMs() <= 0 {
		t.Fatalf("%d samples, kernel %v ms", len(h.took), h.kernelMs())
	}
	if got := h.norm(iv); got <= 0 {
		t.Errorf("normalized %v s", got)
	}
}
