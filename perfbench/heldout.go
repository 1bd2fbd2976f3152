package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"time"
)

// defaultHeldoutPass is the number of held-out programs per pass.
const defaultHeldoutPass = 24

// heldoutSeedBase keeps generator seeds far from the suite's 101–111.
const heldoutSeedBase = 1_000_000

// drawShape draws program i's generator knobs from ranges spanning the
// suite's. The trip count is a first guess that set-up rescales.
func drawShape(seed int64, i, attempt int) shape {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(i)*1_009 + int64(attempt)))
	u := func(lo, hi float64) float64 { return lo + r.Float64()*(hi-lo) }
	inner := 0
	if r.Intn(4) > 0 {
		inner = 4 + r.Intn(7)
	}
	return shape{
		Name:       fmt.Sprintf("h%d-%02d", seed, i),
		Seed:       heldoutSeedBase + (seed*1_000+int64(i))*16 + int64(attempt),
		LoopNests:  2 + r.Intn(7),
		OuterIters: 200,
		InnerIters: inner,
		Pats:       7 + r.Intn(3),
		Diamond:    u(0.18, 0.62), ThenBias: u(0.22, 0.8), DataBranch: u(0.05, 0.4),
		Overwrite: u(0.4, 0.5), Mem: u(0.3, 0.75), Chase: u(0, 0.5),
		DeadStore: u(0.04, 0.45), Sink: u(0.88, 1), Call: u(0.03, 0.2),
		ArrayWords: []int{512, 2048, 4096, 16384}[r.Intn(4)],
		Hoist:      1 + r.Intn(3),
		Regs:       16 + r.Intn(7),
	}
}

// heldoutProgram is a compiled held-out program with its reference
// outputs from the IR interpreter.
type heldoutProgram struct {
	*compiled
	want []uint64
}

// drawHeldout finds held-out program i's final shape: its trip count is
// rescaled so it commits 45–80% of the budget, and a draw that misses
// that window or does not halt is redrawn. This is input generation, not
// set-up: how many draws a seed needs varies, so it is left out of
// setup_s.
func drawHeldout(tr *tracer, seed int64, i, budget int) (shape, error) {
	target := budget * 6 / 10
	for attempt := 0; attempt < 16; attempt++ {
		s := drawShape(seed, i, attempt)
		c, err := compileShape(tr, s, i)
		if err != nil {
			return shape{}, err
		}
		n, err := c.dryRun(tr, budget, i)
		for err == errNoHalt && s.OuterIters > 1 {
			s.OuterIters /= 4
			if c, err = compileShape(tr, s, i); err != nil {
				return shape{}, err
			}
			n, err = c.dryRun(tr, budget, i)
		}
		if err == errNoHalt {
			continue
		}
		if err != nil {
			return shape{}, fmt.Errorf("%s: %w", s.Name, err)
		}
		s.OuterIters = max(1, int(float64(s.OuterIters)*float64(target)/float64(n)+0.5))
		if c, err = compileShape(tr, s, i); err != nil {
			return shape{}, err
		}
		n, err = c.dryRun(tr, budget, i)
		if err == errNoHalt || err == nil && (n < budget*45/100 || n > budget*80/100) {
			continue
		}
		if err != nil {
			return shape{}, fmt.Errorf("%s: %w", s.Name, err)
		}
		return s, nil
	}
	return shape{}, fmt.Errorf("held-out program %d of seed %d: no draw halts in the budget window", i, seed)
}

// prepareHeldout is one program's set-up: generate and compile it from
// its final shape and check it halts inside the budget window. Its cost
// follows the instructions the program commits, which drawHeldout holds
// near the same share of the budget for every program and seed.
func prepareHeldout(tr *tracer, s shape, want []uint64, i, budget int) (*heldoutProgram, error) {
	c, err := compileShape(tr, s, i)
	if err != nil {
		return nil, err
	}
	n, err := c.dryRun(tr, budget, i)
	if err == nil && (n < budget*45/100 || n > budget*80/100) {
		err = fmt.Errorf("commits %d instructions, outside the budget window", n)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	return &heldoutProgram{compiled: c, want: want}, nil
}

// runHeldout profiles seeded held-out programs, one at a time, through
// the production emulate+analyze path. The inputs are made first,
// untimed: each program's shape, and its reference outputs from the IR
// interpreter, whose cost varies widely with the program. Set-up then
// generates, compiles and checks the programs; the timed phase makes
// whole passes over them until the run length is spent.
func runHeldout(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	out := &outcome{Layers: map[string]float64{}, Detail: map[string]any{}}
	n := cfg.Pass
	if n <= 0 {
		n = defaultHeldoutPass
	}
	refPath := refsPath(cfg, fmt.Sprintf("heldout-seed%d", cfg.Seed))
	refs, err := loadRefs(refPath)
	if err != nil {
		return nil, err
	}
	shapes := make([]shape, n)
	wants := make([][]uint64, n)
	for i := range shapes {
		if shapes[i], err = drawHeldout(tr, cfg.Seed, i, cfg.Budget); err != nil {
			return nil, err
		}
		if wants[i], err = shapes[i].interpret(tr, i); err != nil {
			return nil, fmt.Errorf("%s: reference: %w", shapes[i].Name, err)
		}
	}
	var progs []*heldoutProgram
	var setupFrom int
	for k := 0; k < cfg.Setups; k++ {
		progs = nil
		runtime.GC()
		setupFrom = tr.mark()
		t0 := time.Now()
		for i, s := range shapes {
			p, err := prepareHeldout(tr, s, wants[i], i, cfg.Budget)
			if err != nil {
				return nil, err
			}
			progs = append(progs, p)
		}
		out.Setups = append(out.Setups, since(t0))
	}
	pid := os.Getpid()
	runtime.GC()
	resetPeakRSS(pid)

	mc := newCollector()
	from := tr.mark()
	digests := map[string]string{} // first pass's summary digest per program
	var allocs []float64
	var insts, dead int64
	start := time.Now()
	for pass := 0; morePasses(start, pass, cfg.Seconds); pass++ {
		p0 := time.Now()
		for i, p := range progs {
			unit := pass*len(progs) + i
			r, err := p.collect(tr, mc, cfg.Budget, unit)
			out.Attempted++
			ok := err == nil && checkHeldout(p, r, pass, digests, refs, cfg.WriteRefs)
			if err != nil {
				fmt.Fprintf(os.Stderr, "heldout: %s: %v\n", p.shape.Name, err)
			}
			if !ok {
				out.Failed++
				continue
			}
			out.Lat = append(out.Lat, ending(r.Elapsed))
			if pass == 0 {
				insts += int64(r.Insts)
				dead += int64(r.Dead)
			}
			if tr.on() {
				allocs = append(allocs, float64(r.AllocBytes)/(1<<20))
			}
		}
		out.Passes = append(out.Passes, since(p0))
	}
	timed := time.Since(start)
	out.Timed = since(start)
	if out.PeakRSS, err = peakRSSMB(pid); err != nil {
		return nil, err
	}
	if cfg.WriteRefs {
		if err := saveRefs(refPath, digests); err != nil {
			return nil, err
		}
	}
	out.Detail["programs"] = len(progs)
	out.Detail["passes"] = len(out.Passes)
	out.Detail["committed_refs"] = len(refs) > 0
	if !tr.on() {
		return out, nil
	}

	l := out.Layers
	var spills, hoisted int
	for _, p := range progs {
		spills += p.spills
		hoisted += p.hoisted
	}
	l["compile.spills"], l["compile.hoisted"] = float64(spills), float64(hoisted)
	var compileMs float64
	for _, d := range tr.durations(setupFrom, layerCompile, "compile") {
		compileMs += ms(d)
	}
	l["compile.ms_total"] = compileMs
	collects := tr.durations(from, layerProfile, "collect")
	l["profile.ms_p50"] = medianDur(collects)
	var collectS float64
	for _, d := range collects {
		collectS += d.Seconds()
	}
	l["profile.minst_s"] = float64(insts) * float64(len(out.Passes)) / collectS / 1e6
	ph := collectorPhases(mc)
	l["phase.emulate_s"], l["phase.analyze_s"] = ph["emulate"].Seconds, ph["analyze"].Seconds
	l["phase.coverage"] = (ph["emulate"].Seconds + ph["analyze"].Seconds) / timed.Seconds()
	l["profile.alloc_mb_p50"] = median(allocs)
	l["profile.insts"] = float64(insts)
	l["profile.dead_frac"] = float64(dead) / float64(insts)
	applySelf(l, tr, from, timed, 0)
	return out, nil
}

// checkHeldout verifies one profiled program: it halted, its outputs
// equal the IR interpreter's, and its oracle summary equals the first
// pass's and, where committed, the reference digest.
func checkHeldout(p *heldoutProgram, r profileRun, pass int, digests, refs map[string]string, writing bool) bool {
	name := p.shape.Name
	if !r.Halted || !slices.Equal(r.Outputs, p.want) {
		fmt.Fprintf(os.Stderr, "heldout: %s: outputs differ from the IR interpreter (halted=%v)\n", name, r.Halted)
		return false
	}
	if pass == 0 {
		digests[name] = r.SummaryDigest
	} else if digests[name] != r.SummaryDigest {
		fmt.Fprintf(os.Stderr, "heldout: %s: summary changed between passes\n", name)
		return false
	}
	if want, ok := refs[name]; ok && !writing && want != r.SummaryDigest {
		fmt.Fprintf(os.Stderr, "heldout: %s: summary digest %s, want %s\n", name, r.SummaryDigest, want)
		return false
	}
	return true
}
