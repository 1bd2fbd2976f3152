package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// probeTiers measures the artifact tiers in the daemon workload's traced
// run, after its timed phase: each suite profile is loaded twice, first
// into a fresh workspace with an empty disk tier and the daemon attached
// as the remote tier (remote fetch, verify, decode, write-through), then
// into a second fresh workspace over that directory (disk load: map,
// verify, decode). Each load must come from the intended tier with no
// profile build, and its summary must equal the daemon's; a unit that
// does not counts as failed.
func probeTiers(cfg config, tr *tracer, d *daemon, want map[string]string, out *outcome) {
	from := tr.mark()
	var fetches []time.Duration
	var fetched int64
	var total kindStat
	var programBuilds int64
	for unit, bench := range suiteNames() {
		dir := filepath.Join(cfg.Work, fmt.Sprintf("peer-%d", unit))
		u, err := warmUnit(tr, cfg.Budget, dir, d.url, bench, unit)
		os.RemoveAll(dir)
		if err == nil {
			err = u.check(want[bench])
		}
		out.Attempted++
		if err != nil {
			fmt.Fprintf(os.Stderr, "tiers: %s: %v\n", bench, err)
			out.Failed++
		}
		fetches = append(fetches, u.fetches...)
		fetched += u.fetchedBytes
		for _, s := range []kindStat{u.remote, u.disk} {
			total.Builds += s.Builds
			total.VerifyFailures += s.VerifyFailures
		}
		programBuilds += u.programBuilds
	}
	l := out.Layers
	l["remote.fetch_ms_p50"] = medianDur(fetches)
	var fetchS float64
	for _, f := range fetches {
		fetchS += f.Seconds()
	}
	if fetchS > 0 {
		l["remote.mb_s"] = float64(fetched) / (1 << 20) / fetchS
	}
	l["remote.install_ms_p50"] = medianDur(tr.selfOf(from, layerRemote, "load"))
	l["disk.load_ms_p50"] = medianDur(tr.durations(from, layerDisk, "load"))
	l["artifact.profile.builds"] += float64(total.Builds)
	l["artifact.profile.verify_failures"] = float64(total.VerifyFailures)
	l["artifact.program.builds"] = float64(programBuilds)
	byLayer, _ := tr.selfTimes(from)
	l["self."+layerRemote+"_s"] = byLayer[layerRemote].Seconds()
	l["self."+layerDisk+"_s"] = byLayer[layerDisk].Seconds()
}

// warmLoad is one unit's two loads and what each tier reported.
type warmLoad struct {
	remoteDigest, diskDigest string
	remote, disk             kindStat // profile counters of each workspace
	programBuilds            int64
	fetches                  []time.Duration
	fetchedBytes             int64
}

func warmUnit(tr *tracer, budget int, dir, url, bench string, unit int) (warmLoad, error) {
	var u warmLoad
	p1, err := openPeer(tr, budget, dir, url)
	if err != nil {
		return u, err
	}
	u.remoteDigest, err = p1.load(tr, layerRemote, bench, unit)
	u.remote = p1.profileStats()
	u.programBuilds += p1.programBuilds()
	u.fetches, u.fetchedBytes = p1.remote.fetches, p1.remote.bytes
	p1.close()
	if err != nil {
		return u, fmt.Errorf("remote load: %w", err)
	}
	p2, err := openPeer(tr, budget, dir, "")
	if err != nil {
		return u, err
	}
	u.diskDigest, err = p2.load(tr, layerDisk, bench, unit)
	u.disk = p2.profileStats()
	u.programBuilds += p2.programBuilds()
	p2.close()
	if err != nil {
		return u, fmt.Errorf("disk load: %w", err)
	}
	return u, nil
}

// check verifies that each load came from its tier without a build and
// matched the daemon's summary.
func (u warmLoad) check(want string) error {
	switch {
	case u.remote.Builds != 0 || u.remote.RemoteHits != 1 || u.remote.DiskWrites != 1:
		return fmt.Errorf("remote load: %+v, want one remote hit, one disk write, no build", u.remote)
	case u.disk.Builds != 0 || u.disk.DiskHits != 1:
		return fmt.Errorf("disk load: %+v, want one disk hit, no build", u.disk)
	case want == "" || u.remoteDigest != want || u.diskDigest != want:
		return fmt.Errorf("summary digests remote %s disk %s, daemon %s", u.remoteDigest, u.diskDigest, want)
	}
	return nil
}
