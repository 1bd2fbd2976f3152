package main

// This file is the benchmark's only contact with the repository's Go API:
// every import of a repro/internal package and every call into one lives
// here, and each call into a layer is wrapped in exactly one tracer span.
// When an entry point is renamed or collapsed, this file is the one to
// edit.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/client"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/deadness"
	"repro/internal/dip"
	"repro/internal/emu"
	repmetrics "repro/internal/metrics"
	"repro/internal/program"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workload"
)

// defaultBudget is the production per-benchmark instruction budget.
const defaultBudget = core.DefaultBudget

// Layer names used for spans and per-layer self time.
const (
	layerCompile = "compile"
	layerProfile = "profile" // emulate + analyze
	layerEngine  = "engine"
	layerRemote  = "remote"
	layerDisk    = "disk"
	layerService = "service"
	layerRef     = "reference" // the independent reference computation
	layerVerify  = "verify"    // the benchmark's own output checks
)

// Leaf phases of the repository's metrics collector. The "experiment"
// phase is left out on purpose: it is inclusive of every other phase and
// of pool queueing, so it is not a layer.
var leafPhases = []string{"compile", "emulate", "analyze", "predict", "simulate"}

func experimentIDs() []string { return core.ExperimentIDs() }

func suiteNames() []string { return core.SuiteNames() }

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// ---- engine (core.Workspace) ----

// engine is an in-memory workspace with the collector it reports to.
type engine struct {
	w  *core.Workspace
	mc *repmetrics.Collector
	tr *tracer
}

// newEngine returns a fresh in-memory workspace with workers pool
// workers. verbose, when non-nil, receives the collector's per-span
// progress lines.
func newEngine(budget, workers int, tr *tracer, verbose io.Writer) *engine {
	w := core.NewWorkspaceWorkers(budget, workers)
	mc := repmetrics.New()
	if verbose != nil {
		mc.SetVerbose(verbose)
	}
	w.Metrics = mc
	return &engine{w: w, mc: mc, tr: tr}
}

func (e *engine) preload(ctx context.Context) error {
	id := e.tr.start(noSpan, layerEngine, "preload", -1)
	defer e.tr.stop(id)
	return e.w.Preload(ctx)
}

// expOutcome is one finished experiment: the digest of its deterministic
// rendering, or the error that stopped it.
type expOutcome struct {
	ID     string
	Digest string
	Err    error
}

func (e *engine) runExperiments(ctx context.Context, ids []string) []expOutcome {
	id := e.tr.start(noSpan, layerEngine, "run_experiments", -1)
	exps, err := e.w.RunExperiments(ctx, ids)
	e.tr.stop(id)
	out := make([]expOutcome, len(ids))
	for i, x := range ids {
		out[i].ID = x
		switch {
		case err != nil:
			out[i].Err = err
		default:
			out[i].Digest = renderDigest(exps[i])
		}
	}
	return out
}

func (e *engine) runExperiment(ctx context.Context, x string, unit int) expOutcome {
	id := e.tr.start(noSpan, layerEngine, "exp."+x, unit)
	exp, err := e.w.RunExperiment(ctx, x)
	e.tr.stop(id)
	if err != nil {
		return expOutcome{ID: x, Err: err}
	}
	vid := e.tr.start(noSpan, layerVerify, "render", unit)
	defer e.tr.stop(vid)
	return expOutcome{ID: x, Digest: renderDigest(exp)}
}

func renderDigest(e *core.Experiment) string { return sha([]byte(e.Render())) }

// phaseStat is one leaf phase of the collector.
type phaseStat struct {
	Count   int64
	Seconds float64
	Insts   int64
	Alloc   int64
}

func (e *engine) phases() map[string]phaseStat {
	return phasesOf(e.mc.Summary())
}

func phasesOf(s repmetrics.Summary) map[string]phaseStat {
	out := map[string]phaseStat{}
	for _, name := range leafPhases {
		p := s.Phases[name]
		out[name] = phaseStat{Count: p.Count, Seconds: p.WallSeconds, Insts: p.Insts, Alloc: p.AllocBytes}
	}
	return out
}

// kindStat is the subset of an artifact kind's counters the benchmark
// reports.
type kindStat struct {
	Builds, Hits, DiskHits, DiskWrites, VerifyFailures, RemoteHits int64
}

func kindStatsOf(s artifact.Stats) map[string]kindStat {
	out := map[string]kindStat{}
	for k, v := range s.Kinds {
		out[string(k)] = kindStat{
			Builds: v.Misses, Hits: v.Hits, DiskHits: v.DiskHits, DiskWrites: v.DiskWrites,
			VerifyFailures: v.VerifyFailures, RemoteHits: v.RemoteHits,
		}
	}
	return out
}

func (e *engine) artifactStats() (map[string]kindStat, int64) {
	s := e.w.ArtifactStats()
	return kindStatsOf(s), s.ResidentBytes
}

// profileFacts sums compile and oracle facts over the suite's default
// profiles, all of which must already be resident.
type profileFacts struct {
	Insts, Dead, Spills, Hoisted int64
}

func (e *engine) suiteFacts() (profileFacts, error) {
	var f profileFacts
	for _, name := range core.SuiteNames() {
		err := e.w.WithProfile(name, func(p *core.ProfileResult) error {
			f.Insts += int64(p.Summary.Total)
			f.Dead += int64(p.Summary.Dead)
			f.Spills += int64(p.PassStats.Spilled)
			f.Hoisted += int64(p.PassStats.Hoisted)
			return nil
		})
		if err != nil {
			return f, err
		}
	}
	return f, nil
}

// evalPredictor evaluates spec in process, for checking a daemon's answer.
func (e *engine) evalPredictor(s predSpec) (dip.Result, error) {
	return e.w.EvalPredictor(s.Bench, s.dip())
}

// ---- held-out programs (workload, compiler, emu) ----

// shape is a held-out program's generator knobs, mirroring
// workload.Profile.
type shape struct {
	Name                                    string
	Seed                                    int64
	LoopNests, OuterIters, InnerIters, Pats int
	Diamond, ThenBias, DataBranch           float64
	Overwrite, Mem, Chase, DeadStore        float64
	Sink, Call                              float64
	ArrayWords, Hoist, Regs                 int
}

func (s shape) profile() workload.Profile {
	return workload.Profile{
		Name: s.Name, Seed: s.Seed,
		LoopNests: s.LoopNests, OuterIters: s.OuterIters, InnerIters: s.InnerIters, Patterns: s.Pats,
		DiamondProb: s.Diamond, ThenBias: s.ThenBias, DataBranchProb: s.DataBranch,
		OverwriteProb: s.Overwrite, MemProb: s.Mem, ChaseProb: s.Chase,
		DeadStoreProb: s.DeadStore, SinkProb: s.Sink, CallProb: s.Call,
		ArrayWords: s.ArrayWords,
		Opts:       compiler.Options{MaxHoist: s.Hoist, MaxLICM: 8, NumRegs: s.Regs},
	}
}

// compiled is a held-out program ready to profile.
type compiled struct {
	shape   shape
	prog    *program.Program
	spills  int
	hoisted int
}

func compileShape(tr *tracer, s shape, unit int) (*compiled, error) {
	id := tr.start(noSpan, layerCompile, "compile", unit)
	prog, st, err := s.profile().Compile(nil)
	tr.stop(id)
	if err != nil {
		return nil, err
	}
	return &compiled{shape: s, prog: prog, spills: st.Spilled, hoisted: st.Hoisted}, nil
}

// errNoHalt marks a program that does not halt within the budget.
var errNoHalt = errors.New("program does not halt within the budget")

// dryRun emulates the program without collecting a trace and returns its
// committed instruction count, or errNoHalt.
func (c *compiled) dryRun(tr *tracer, budget, unit int) (int, error) {
	id := tr.start(noSpan, layerRef, "dry_run", unit)
	defer tr.stop(id)
	m := emu.New(c.prog)
	if err := m.Run(budget, func(*trace.Record) {}); err != nil {
		if errors.Is(err, emu.ErrBudget) {
			return m.Steps, errNoHalt
		}
		return 0, err
	}
	return m.Steps, nil
}

// interpret runs the program's IR on the compiler's reference
// interpreter, independent of lowering and the emulator.
func (s shape) interpret(tr *tracer, unit int) ([]uint64, error) {
	id := tr.start(noSpan, layerRef, "interpret", unit)
	defer tr.stop(id)
	f, err := s.profile().Build()
	if err != nil {
		return nil, err
	}
	// The IR retires fewer steps than the machine code, so the machine
	// budget bounds the interpreter too.
	return compiler.Interpret(f, 4*defaultBudget)
}

// profileRun is one pass of a program through the production
// emulate+analyze path.
type profileRun struct {
	Outputs       []uint64
	Halted        bool
	Insts         int
	Dead          int
	SummaryDigest string
	Elapsed       time.Duration
	AllocBytes    uint64 // measured only when tracing
}

// collect profiles the program through emu.CollectAnalyzed's production
// path (default shard count), reporting phases to mc.
func (c *compiled) collect(tr *tracer, mc *repmetrics.Collector, budget, unit int) (profileRun, error) {
	var a0 uint64
	if tr.on() {
		a0 = heapAllocs()
	}
	id := tr.start(noSpan, layerProfile, "collect", unit)
	t0 := time.Now()
	t, a, m, err := emu.CollectAnalyzedObserved(c.prog, budget, mc, c.shape.Name)
	el := time.Since(t0)
	tr.stop(id)
	if err != nil {
		return profileRun{}, err
	}
	r := profileRun{Outputs: m.Outputs, Halted: m.Halted, Insts: t.Len(), Elapsed: el}
	if tr.on() {
		r.AllocBytes = heapAllocs() - a0
	}
	vid := tr.start(noSpan, layerVerify, "summary", unit)
	s := a.Summarize(t, c.prog)
	t.Release()
	r.Dead = s.Dead
	r.SummaryDigest = summaryDigest(s)
	tr.stop(vid)
	return r, nil
}

func summaryDigest(s deadness.Summary) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // a plain struct of integers always marshals
	}
	return sha(b)
}

func newCollector() *repmetrics.Collector { return repmetrics.New() }

func collectorPhases(mc *repmetrics.Collector) map[string]phaseStat { return phasesOf(mc.Summary()) }

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// ---- predictor specs and daemon responses (dip, server) ----

// predSpec is one /v1/predeval request.
type predSpec struct {
	Bench  string
	Flavor string
	Config dip.Config
}

func newPredConfig(logSets, ways, tagBits, pathLen, slots, counterBits, threshold int) dip.Config {
	return dip.Config{LogSets: logSets, Ways: ways, TagBits: tagBits, PathLen: pathLen,
		SigSlots: slots, CounterBits: counterBits, Threshold: threshold}
}

func (s predSpec) dip() dip.Spec { return dip.Spec{Flavor: s.Flavor, Config: s.Config} }

func (s predSpec) validate() error { return s.dip().Validate() }

// key identifies the computation the daemon coalesces and caches on.
func (s predSpec) key() string { return s.Bench + ":" + s.dip().Digest() }

func (s predSpec) label() string { return s.dip().Label() }

func (s predSpec) body() []byte {
	b, err := json.Marshal(struct {
		Bench  string     `json:"bench"`
		Flavor string     `json:"flavor"`
		Config dip.Config `json:"config"`
	}{s.Bench, s.Flavor, s.Config})
	if err != nil {
		panic(err) // plain data always marshals
	}
	return b
}

// checkPredEval verifies a /v1/predeval response body against the spec:
// the label must match, the counts must be consistent, and, when want is
// non-nil, the result must equal the in-process evaluation exactly.
func checkPredEval(body []byte, s predSpec, want *dip.Result) error {
	var got server.PredEvalResult
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decode predeval response: %w", err)
	}
	r := got.Result
	switch {
	case got.Bench != s.Bench || got.Spec != s.label():
		return fmt.Errorf("response for %s %s, want %s %s", got.Bench, got.Spec, s.Bench, s.label())
	case r.Candidates <= 0 || r.Dead > r.Candidates || r.TruePos > r.Predicted ||
		r.TruePos > r.Dead || r.Predicted > r.Candidates:
		return fmt.Errorf("inconsistent counts %+v", r)
	case got.Coverage != r.Coverage() || got.Accuracy != r.Accuracy():
		return fmt.Errorf("rates disagree with counts")
	case want != nil && r != *want:
		return fmt.Errorf("daemon %+v != in-process %+v", r, *want)
	}
	return nil
}

// profileSummary decodes a /v1/profile response to its summary digest.
func profileSummary(body []byte) (string, error) {
	var p server.ProfileStats
	if err := json.Unmarshal(body, &p); err != nil {
		return "", fmt.Errorf("decode profile response: %w", err)
	}
	if p.Summary.Total == 0 {
		return "", fmt.Errorf("empty profile summary for %s", p.Bench)
	}
	return summaryDigest(p.Summary), nil
}

// daemonMetrics is the part of /metricz the benchmark reads.
type daemonMetrics struct {
	Counters map[string]int64
	QueueP95 map[string]float64 // by endpoint, ms
	ExecP50  map[string]float64 // by endpoint, ms
	Kinds    map[string]kindStat
	Phases   map[string]phaseStat
}

func decodeMetricz(body []byte) (daemonMetrics, error) {
	var m struct {
		Run       repmetrics.Summary `json:"run"`
		Artifacts artifact.Stats     `json:"artifacts"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		return daemonMetrics{}, fmt.Errorf("decode /metricz: %w", err)
	}
	d := daemonMetrics{Counters: m.Run.Counters, QueueP95: map[string]float64{}, ExecP50: map[string]float64{},
		Kinds: kindStatsOf(m.Artifacts), Phases: phasesOf(m.Run)}
	for name, h := range m.Run.Histograms {
		if ep, ok := strings.CutPrefix(name, repmetrics.HistServerQueueWait+"."); ok {
			d.QueueP95[ep] = h.P95Ms
		}
		if ep, ok := strings.CutPrefix(name, repmetrics.HistServerExec+"."); ok {
			d.ExecP50[ep] = h.P50Ms
		}
	}
	return d, nil
}

// Counter names the daemon exports.
const (
	counterCoalesced = repmetrics.CounterServerCoalesced
	counterShed      = repmetrics.CounterServerShed
	counterCompleted = repmetrics.CounterServerCompleted
)

// ---- artifact tiers (artifact, client) ----

// timingRemote wraps the daemon's remote-tier client to time each fetch
// as a child span of the load that caused it.
type timingRemote struct {
	inner   *client.Cache
	tr      *tracer
	parent  spanID
	unit    int
	fetches []time.Duration
	bytes   int64
}

func (r *timingRemote) Fetch(key artifact.Key) ([]byte, bool, error) {
	id := r.tr.start(r.parent, layerRemote, "fetch", r.unit)
	t0 := time.Now()
	b, ok, err := r.inner.Fetch(key)
	r.fetches = append(r.fetches, time.Since(t0))
	r.tr.stop(id)
	r.bytes += int64(len(b))
	return b, ok, err
}

func (r *timingRemote) Store(key artifact.Key, payload []byte) error {
	return r.inner.Store(key, payload)
}

// peer is a fresh workspace over a disk-tier directory, optionally with a
// daemon attached as the remote tier.
type peer struct {
	w      *core.Workspace
	remote *timingRemote
}

func openPeer(tr *tracer, budget int, dir, daemonURL string) (*peer, error) {
	w := core.NewWorkspace(budget)
	if err := w.OpenDiskCache(dir, 0); err != nil {
		return nil, err
	}
	p := &peer{w: w}
	if daemonURL != "" {
		c, err := client.New(daemonURL)
		if err != nil {
			return nil, err
		}
		p.remote = &timingRemote{inner: c, tr: tr}
		w.SetRemoteTier(p.remote)
	}
	return p, nil
}

// load fetches bench's profile through the peer's tiers under a span of
// the given layer, and returns its summary digest.
func (p *peer) load(tr *tracer, layer, bench string, unit int) (string, error) {
	id := tr.start(noSpan, layer, "load", unit)
	if p.remote != nil {
		p.remote.parent, p.remote.unit = id, unit
	}
	var digest string
	err := p.w.WithProfile(bench, func(r *core.ProfileResult) error {
		digest = summaryDigest(r.Summary)
		return nil
	})
	tr.stop(id)
	return digest, err
}

func (p *peer) profileStats() kindStat {
	return kindStatsOf(p.w.ArtifactStats())[string(core.KindProfile)]
}

// programBuilds counts programs compiled by the peer: the profile codec
// recompiles the program on decode.
func (p *peer) programBuilds() int64 {
	return kindStatsOf(p.w.ArtifactStats())[string(core.KindProgram)].Builds
}

// close drops the peer's resident artifacts, unmapping its disk entries.
func (p *peer) close() { p.w.FlushSpill() }
