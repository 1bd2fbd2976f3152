package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// pairEvery makes every pairEvery-th request of a pass go out on both
// connections at once, so the daemon coalesces the two.
const pairEvery = 6

// verifySample is how many responses per run are checked against an
// in-process evaluation of the same spec, after the timed phase.
const verifySample = 4

var flavors = []string{"cfi", "counter", "oracle"}

// predevalPass draws one pass of distinct predictor specs: every
// (benchmark, flavor) pair once, in seeded order, each with a random
// valid geometry. Stratifying keeps the pass's cost mix the same for
// every seed. seen holds the keys already drawn in this run.
func predevalPass(r *rand.Rand, seen map[string]bool) []predSpec {
	var pass []predSpec
	for _, b := range suiteNames() {
		for _, f := range flavors {
			for {
				cb := 1 + r.Intn(3)
				s := predSpec{Bench: b, Flavor: f, Config: newPredConfig(
					5+r.Intn(5), 1+r.Intn(8), 6+r.Intn(7), 1+r.Intn(4), 1+r.Intn(4), cb, 1+r.Intn(1<<cb-1))}
				if s.validate() == nil && !seen[s.key()] {
					seen[s.key()] = true
					pass = append(pass, s)
					break
				}
			}
		}
	}
	r.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
	return pass
}

// reply is one finished request.
type reply struct {
	spec    predSpec
	unit    int
	status  int
	body    []byte
	err     error
	latency interval
}

// job is one request to send, on one connection or (pair) on both.
type job struct {
	spec predSpec
	unit int
	pair bool
}

// closedLoop sends jobs on conns connections, each sending its next
// request only when its previous one completed. A pair job waits until
// both connections are free and sends the same spec on both at once.
type closedLoop struct {
	url  string
	tr   *tracer
	idle chan int
	work []chan job
	wg   sync.WaitGroup

	mu      sync.Mutex
	replies []reply
}

func newClosedLoop(url string, tr *tracer, conns int) *closedLoop {
	c := &closedLoop{url: url, tr: tr, idle: make(chan int, conns)}
	for i := 0; i < conns; i++ {
		ch := make(chan job)
		c.work = append(c.work, ch)
		c.wg.Add(1)
		go c.conn(i, ch)
		c.idle <- i
	}
	return c
}

func (c *closedLoop) conn(i int, jobs <-chan job) {
	defer c.wg.Done()
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	for j := range jobs {
		id := c.tr.start(noSpan, layerService, "predeval", j.unit)
		t0 := time.Now()
		status, body, err := post(hc, c.url+"/v1/predeval", j.spec.body())
		lat := since(t0)
		c.tr.stop(id)
		c.mu.Lock()
		c.replies = append(c.replies, reply{spec: j.spec, unit: j.unit, status: status, body: body, err: err, latency: lat})
		c.mu.Unlock()
		c.idle <- i
	}
}

// send dispatches one job, blocking until enough connections are free.
func (c *closedLoop) send(j job) {
	a := <-c.idle
	if !j.pair {
		c.work[a] <- j
		return
	}
	b := <-c.idle
	c.work[a] <- j
	c.work[b] <- j
}

// drain waits for every sent request to finish and returns the replies
// received since the last drain.
func (c *closedLoop) drain() []reply {
	got := make([]int, 0, len(c.work))
	for range c.work {
		got = append(got, <-c.idle)
	}
	for _, i := range got {
		c.idle <- i
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.replies
	c.replies = nil
	return r
}

func (c *closedLoop) close() {
	for _, ch := range c.work {
		close(ch)
	}
	c.wg.Wait()
}

// runDaemonPredeval drives a warm deadd with distinct /v1/predeval
// requests from one process holding two connections in a closed loop.
// Its traced run then also loads every suite profile through the remote
// and disk tiers (probeTiers).
func runDaemonPredeval(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	out := &outcome{Layers: map[string]float64{}, Detail: map[string]any{}}
	err := withDaemon(cfg, out, func(d *daemon, want map[string]string) error {
		if err := predevalTimed(cfg, tr, d, out); err != nil {
			return err
		}
		if tr.on() {
			probeTiers(cfg, tr, d, want, out)
		}
		return nil
	})
	return out, err
}

func predevalTimed(cfg config, tr *tracer, d *daemon, out *outcome) error {
	r := rand.New(rand.NewSource(cfg.Seed))
	seen := map[string]bool{}
	resetPeakRSS(d.pid())
	m0, err := d.metricz()
	if err != nil {
		return err
	}
	cpu0, err := cpuTime(d.pid())
	if err != nil {
		return err
	}
	loop := newClosedLoop(d.url, tr, 2)
	from := tr.mark()
	var replies []reply
	start := time.Now()
	for pass := 0; morePasses(start, pass, cfg.Seconds); pass++ {
		p0 := time.Now()
		specs := predevalPass(r, seen)
		if cfg.Pass > 0 && cfg.Pass < len(specs) {
			specs = specs[:cfg.Pass]
		}
		for i, s := range specs {
			loop.send(job{spec: s, unit: len(replies) + i, pair: i%pairEvery == pairEvery-1})
		}
		replies = append(replies, loop.drain()...)
		out.Passes = append(out.Passes, since(p0))
	}
	timed := time.Since(start)
	loop.close()
	cpu1, err := cpuTime(d.pid())
	if err != nil {
		return err
	}
	if out.PeakRSS, err = peakRSSMB(d.pid()); err != nil {
		return err
	}
	m1, err := d.metricz()
	if err != nil {
		return err
	}
	out.Timed = since(start)

	// Check every reply, then a seeded sample against in-process
	// evaluations of the same spec.
	sort.Slice(replies, func(i, j int) bool { return replies[i].unit < replies[j].unit })
	byUnit := map[int][]reply{}
	for _, rp := range replies {
		byUnit[rp.unit] = append(byUnit[rp.unit], rp)
	}
	bad := map[int]bool{}
	var okUnits []int
	for u, rs := range byUnit {
		for _, rp := range rs {
			if err := checkReply(rp); err != nil {
				fmt.Fprintf(os.Stderr, "predeval: %s on %s: %v\n", rp.spec.label(), rp.spec.Bench, err)
				bad[u] = true
			}
		}
		if len(rs) == 2 && !bytes.Equal(rs[0].body, rs[1].body) {
			fmt.Fprintf(os.Stderr, "predeval: %s: coalesced pair disagrees\n", rs[0].spec.label())
			bad[u] = true
		}
		if !bad[u] {
			okUnits = append(okUnits, u)
		}
	}
	sort.Ints(okUnits)
	if err := verifyPredevalSample(cfg, r, byUnit, okUnits, bad); err != nil {
		return err
	}
	for _, rp := range replies {
		out.Attempted++
		if bad[rp.unit] {
			out.Failed++
			continue
		}
		out.Lat = append(out.Lat, rp.latency)
	}
	out.Detail["requests"] = len(replies)
	out.Detail["passes"] = len(out.Passes)

	l := out.Layers
	reqs := float64(len(replies))
	if reqs == 0 {
		return nil
	}
	l["deadd.cpu_ms_per_req"] = ms(cpu1-cpu0) / reqs
	l["server.coalesced"] = float64(m1.Counters[counterCoalesced] - m0.Counters[counterCoalesced])
	l["server.shed"] = float64(m1.Counters[counterShed] - m0.Counters[counterShed])
	l["server.queue_wait_ms_p95.predeval"] = m1.QueueP95["predeval"]
	l["server.exec_ms_p50.predeval"] = m1.ExecP50["predeval"]
	l["predeval.exec_ms_p50"] = m1.ExecP50["predeval"]
	l["predeval.client_ms_p50"] = quantile(latencies(out, interval.seconds), 0.5)
	p0, p1 := m0.Phases["predict"], m1.Phases["predict"]
	l["phase.predict_s"] = p1.Seconds - p0.Seconds
	if d := p1.Seconds - p0.Seconds; d > 0 {
		l["predict.minst_s"] = float64(p1.Insts-p0.Insts) / d / 1e6
	}
	for _, k := range []string{"profile", "predeval"} {
		l["artifact."+k+".builds"] = float64(m1.Kinds[k].Builds - m0.Kinds[k].Builds)
		l["artifact."+k+".hits"] = float64(m1.Kinds[k].Hits - m0.Kinds[k].Hits)
	}
	l["artifact.predeval.disk_writes"] = float64(m1.Kinds["predeval"].DiskWrites - m0.Kinds["predeval"].DiskWrites)
	if tr.on() {
		applySelf(l, tr, from, timed, 0)
	}
	return nil
}

// checkReply verifies one reply on its own: a 200 whose result is
// consistent with its spec. A 429 or 5xx is a failure.
func checkReply(rp reply) error {
	if rp.err != nil {
		return rp.err
	}
	if rp.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", rp.status, bytes.TrimSpace(rp.body))
	}
	return checkPredEval(rp.body, rp.spec, nil)
}

// verifyPredevalSample re-evaluates a seeded sample of the units that
// passed checkReply in process and marks those whose replies disagree.
func verifyPredevalSample(cfg config, r *rand.Rand, byUnit map[int][]reply, okUnits []int, bad map[int]bool) error {
	if len(okUnits) == 0 {
		return nil
	}
	e := newEngine(cfg.Budget, 0, nil, nil)
	for _, k := range r.Perm(len(okUnits))[:min(verifySample, len(okUnits))] {
		u := okUnits[k]
		spec := byUnit[u][0].spec
		want, err := e.evalPredictor(spec)
		if err != nil {
			return fmt.Errorf("in-process %s on %s: %w", spec.label(), spec.Bench, err)
		}
		for _, x := range byUnit[u] {
			if err := checkPredEval(x.body, x.spec, &want); err != nil {
				fmt.Fprintf(os.Stderr, "predeval: %s on %s: %v\n", x.spec.label(), x.spec.Bench, err)
				bad[u] = true
			}
		}
	}
	return nil
}
