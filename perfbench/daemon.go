package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// daemon is a running deadd process with its own cache directory.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	dir    string
	waited chan error
}

var servingLine = regexp.MustCompile(`serving on (http://\S+)`)

// startDaemon starts deadd on a free loopback port with a fresh cache
// directory and production defaults otherwise, and waits until it is
// ready.
func startDaemon(cfg config, dir string) (*daemon, error) {
	if cfg.Deadd == "" {
		return nil, errors.New("-deadd is required for the daemon workload")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(cfg.Deadd, "-addr", "127.0.0.1:0", "-cache-dir", dir, "-n", strconv.Itoa(cfg.Budget))
	cmd.Stdout = io.Discard
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start deadd: %w", err)
	}
	d := &daemon{cmd: cmd, dir: dir, waited: make(chan error, 1)}
	urls := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := servingLine.FindStringSubmatch(sc.Text()); m != nil {
				urls <- m[1]
			}
		}
		close(urls)
		d.waited <- cmd.Wait()
	}()
	select {
	case u, ok := <-urls:
		if !ok {
			return nil, fmt.Errorf("deadd exited before serving: %v", <-d.waited)
		}
		d.url = u
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("deadd did not start serving within 30s")
	}
	for t0 := time.Now(); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(d.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			d.kill()
			return nil, errors.New("deadd not ready within 30s")
		}
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill stops the daemon at once and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.waited
}

// stop drains the daemon with SIGTERM, as an operator would, and waits
// for it; after a minute it is killed.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case err := <-d.waited:
		return err
	case <-time.After(time.Minute):
		d.kill()
		return errors.New("deadd did not drain within a minute")
	}
}

// post sends one JSON POST and returns the status and body.
func post(hc *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (d *daemon) metricz() (daemonMetrics, error) {
	resp, err := http.Get(d.url + "/metricz")
	if err != nil {
		return daemonMetrics{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return daemonMetrics{}, err
	}
	return decodeMetricz(b)
}

// warm profiles every suite benchmark through /v1/profile on two
// connections, and returns each profile's summary digest.
func (d *daemon) warm() (map[string]string, error) {
	names := suiteNames()
	out := make(map[string]string, len(names))
	var mu sync.Mutex
	var firstErr error
	next := make(chan string)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := &http.Client{}
			for name := range next {
				status, body, err := post(hc, d.url+"/v1/profile", []byte(`{"bench":"`+name+`"}`))
				var dg string
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
				}
				if err == nil {
					dg, err = profileSummary(body)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("warm %s: %w", name, err)
				}
				out[name] = dg
				mu.Unlock()
			}
		}()
	}
	for _, n := range names {
		next <- n
	}
	close(next)
	wg.Wait()
	return out, firstErr
}

// withDaemon is the daemon workload's set-up and tear-down: it starts a
// deadd on a fresh cache directory and warms the suite's profiles through
// it, cfg.Setups times, killing all but the last daemon; runs fn against
// the last one with the daemon's summary digest per benchmark; and always
// stops it.
func withDaemon(cfg config, out *outcome,
	fn func(d *daemon, want map[string]string) error) error {
	var d *daemon
	var want map[string]string
	for i := 0; i < cfg.Setups; i++ {
		if d != nil {
			d.kill()
			os.RemoveAll(d.dir)
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		d, err = startDaemon(cfg, filepath.Join(cfg.Work, fmt.Sprintf("deadd-%d", i)))
		if err != nil {
			return err
		}
		if want, err = d.warm(); err != nil {
			d.kill()
			return err
		}
		out.Setups = append(out.Setups, since(t0))
	}
	err := fn(d, want)
	if serr := d.stop(); err == nil && serr != nil {
		err = fmt.Errorf("deadd drain: %w", serr)
	}
	return err
}
