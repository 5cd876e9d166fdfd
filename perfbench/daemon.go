package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one pmserve -load process.
type daemon struct {
	cmd     *exec.Cmd
	started time.Time
	base    string // http://host:port
	ctl     *http.Client
	addr    chan string
}

// addrWriter receives pmserve's stdout and hands over the listen
// address from its "serving on http://ADDR/" line.
type addrWriter struct {
	mu   sync.Mutex
	buf  []byte
	sent bool
	addr chan<- string
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if _, rest, ok := strings.Cut(line, "serving on http://"); ok {
			if a, _, ok := strings.Cut(rest, "/"); ok {
				w.addr <- a // buffered: the only send
				w.sent = true
				w.buf = nil
				return len(p), nil
			}
		}
	}
}

// startDaemon spawns pmserve on pmrs and returns once /readyz answers
// 200, with the seconds from spawn to ready.
func startDaemon(ctx context.Context, bin, pmrs string) (*daemon, float64, error) {
	d := &daemon{started: time.Now(), addr: make(chan string, 1), ctl: &http.Client{Timeout: 5 * time.Second}}
	d.cmd = exec.Command(bin, "-load", pmrs, "-addr", "127.0.0.1:0")
	d.cmd.Stdout = &addrWriter{addr: d.addr}
	d.cmd.Stderr = os.Stderr
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	deadline := time.NewTimer(60 * time.Second)
	defer deadline.Stop()
	select {
	case a := <-d.addr:
		d.base = "http://" + a
	case <-deadline.C:
		d.kill()
		return nil, 0, errors.New("pmserve did not report its address")
	case <-ctx.Done():
		d.kill()
		return nil, 0, ctx.Err()
	}
	for {
		if code, _, err := d.fetch(ctx, "/readyz"); err == nil && code == http.StatusOK {
			return d, time.Since(d.started).Seconds(), nil
		}
		select {
		case <-deadline.C:
			d.kill()
			return nil, 0, errors.New("pmserve did not become ready")
		case <-ctx.Done():
			d.kill()
			return nil, 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// fetch GETs path on the control connection.
func (d *daemon) fetch(ctx context.Context, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.ctl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// generation reads the published store generation from path, which
// is /readyz or /v1/windows (both carry a "generation" field).
func (d *daemon) generation(ctx context.Context, path string) (uint64, error) {
	code, b, err := d.fetch(ctx, path)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("%s: status %d", path, code)
	}
	var doc struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	return doc.Generation, nil
}

// republish sends SIGHUP and returns the seconds until the daemon
// serves the next generation. The switch is detected on /readyz, which
// is cheap to poll, and then confirmed on /v1/windows.
func (d *daemon) republish(ctx context.Context) (float64, error) {
	prev, err := d.generation(ctx, "/readyz")
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGHUP); err != nil {
		return 0, err
	}
	for {
		g, err := d.generation(ctx, "/readyz")
		if err == nil && g > prev {
			secs := time.Since(t0).Seconds()
			if wg, err := d.generation(ctx, "/v1/windows"); err != nil || wg != g {
				return 0, fmt.Errorf("/v1/windows reports generation %d (%v), /readyz %d", wg, err, g)
			}
			return secs, nil
		}
		if time.Since(t0) > 30*time.Second {
			return 0, errors.New("republish did not complete within 30s")
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// counters scrapes the named counters from /metrics.
func (d *daemon) counters(ctx context.Context, names ...string) (map[string]float64, error) {
	code, b, err := d.fetch(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", code)
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !want[name] {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("/metrics has no %s", n)
		}
	}
	return out, nil
}

// stop drains the daemon with SIGTERM, waits for it to exit and
// returns its CPU seconds (user+sys) and peak resident memory in MB.
func (d *daemon) stop() (cpuS, rssMB float64, err error) {
	d.ctl.CloseIdleConnections()
	if rssMB, err = procPeakRSS(d.cmd.Process.Pid); err != nil {
		return 0, 0, err
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, 0, err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	t := time.NewTimer(20 * time.Second)
	defer t.Stop()
	select {
	case err = <-done:
	case <-t.C:
		d.cmd.Process.Kill()
		<-done
		return 0, 0, errors.New("pmserve did not drain within 20s; killed")
	}
	if err != nil {
		return 0, 0, fmt.Errorf("pmserve exit: %w", err)
	}
	return cpuTime(d.cmd.ProcessState), rssMB, nil
}

// kill ends a daemon that failed to start and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// cpuTime returns a finished process's user+sys CPU seconds. Its peak
// memory is read from /proc while it runs instead (procPeakRSS): the
// peak its rusage reports also counts the parent's memory it was
// spawned from.
func cpuTime(ps *os.ProcessState) float64 {
	return (ps.UserTime() + ps.SystemTime()).Seconds()
}
