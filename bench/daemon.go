package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"darklight/internal/serve"
)

// repoRoot finds the checkout root — the directory holding go.mod and
// cmd/attributed — from the working directory or a parent of it, so the
// harness runs from the root (run.sh), from bench/ (go run -C bench .) and
// from go test alike.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "attributed", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no checkout root with cmd/attributed above the working directory")
		}
		dir = parent
	}
}

// buildDaemon compiles cmd/attributed into <root>/.bench_build and returns
// the binary's path. It is not part of any measured time.
func buildDaemon(root string) (string, error) {
	out := filepath.Join(root, ".bench_build", "attributed")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/attributed")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: go build ./cmd/attributed: %v\n%s", err, b)
	}
	return out, nil
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed before the daemon binds it; nothing else on a benchmark box races
// for the port in between.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// daemon is one running cmd/attributed child.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	log    *bytes.Buffer
	ctl    *http.Client // control-plane connection: healthz, /metrics
	exited chan struct{}
	// bootTime is exec → first healthz 200.
	bootTime time.Duration
	// version is the serve-layer index version the harness last saw.
	version int
}

// live holds the running children, so that a signal handler can take
// them down with the harness.
var live = struct {
	sync.Mutex
	daemons map[*daemon]struct{}
}{daemons: make(map[*daemon]struct{})}

// killChildren kills every running child without waiting for a drain.
func killChildren() {
	live.Lock()
	defer live.Unlock()
	for d := range live.daemons {
		// A child that already exited cannot be killed again; nothing to do.
		_ = d.cmd.Process.Kill()
	}
}

const (
	bootDeadline   = 120 * time.Second
	reloadDeadline = 60 * time.Second
	healthPoll     = 2 * time.Millisecond
	reloadPoll     = 10 * time.Millisecond
)

// startDaemon execs the binary with its default flags plus the corpus,
// index directory and listen address, and waits for the first healthz 200.
func startDaemon(bin, known, query, indexDir string, extra []string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-known", known, "-query", query, "-index-dir", indexDir, "-save-index", "-listen", addr}, extra...)
	d := &daemon{
		cmd:    exec.Command(bin, args...),
		base:   "http://" + addr,
		log:    &bytes.Buffer{},
		ctl:    &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 10 * time.Second},
		exited: make(chan struct{}),
	}
	d.cmd.Stderr = d.log
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: start daemon: %w", err)
	}
	live.Lock()
	live.daemons[d] = struct{}{}
	live.Unlock()
	go func() {
		// The exit status of a signalled child carries nothing the harness acts on.
		_ = d.cmd.Wait()
		live.Lock()
		delete(live.daemons, d)
		live.Unlock()
		close(d.exited)
	}()
	for {
		h, err := d.healthz()
		if err == nil {
			d.bootTime = time.Since(start)
			d.version = h.IndexVersion
			return d, nil
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("bench: daemon exited before turning healthy:\n%s", d.log)
		default:
		}
		if time.Since(start) > bootDeadline {
			d.stop()
			return nil, fmt.Errorf("bench: daemon not healthy after %s:\n%s", bootDeadline, d.log)
		}
		time.Sleep(healthPoll)
	}
}

func (d *daemon) healthz() (*serve.HealthResponse, error) {
	resp, err := d.ctl.Get(d.base + "/v1/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	var h serve.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, err
	}
	return &h, nil
}

// reload sends SIGHUP and waits until healthz reports the next index
// version. It returns the time from the signal to that report and the
// journal sequence the new index says it has folded in.
func (d *daemon) reload() (time.Duration, uint64, error) {
	want := d.version + 1
	start := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGHUP); err != nil {
		return 0, 0, fmt.Errorf("bench: SIGHUP: %w", err)
	}
	for {
		h, err := d.healthz()
		if err == nil && h.IndexVersion >= want {
			d.version = h.IndexVersion
			var seq uint64
			if h.LastJournalSeq != nil {
				seq = *h.LastJournalSeq
			}
			return time.Since(start), seq, nil
		}
		if time.Since(start) > reloadDeadline {
			return 0, 0, fmt.Errorf("bench: reload not visible after %s (last error: %v)\n%s", reloadDeadline, err, d.log)
		}
		select {
		case <-d.exited:
			return 0, 0, fmt.Errorf("bench: daemon died during reload:\n%s", d.log)
		case <-time.After(reloadPoll):
		}
	}
}

// peakRSS reads the child's high-water resident set from /proc, in MiB.
func (d *daemon) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bench: VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("bench: no VmHWM in /proc status")
}

// gauges scrapes the daemon's /metrics and returns the unlabelled samples
// by name.
func (d *daemon) gauges() (map[string]float64, error) {
	resp, err := d.ctl.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// stop terminates the child (SIGTERM, then SIGKILL if the drain hangs),
// waits until it has gone, and returns its peak RSS in MiB.
func (d *daemon) stop() float64 {
	// A child that already exited has no /proc entry; 0 then means "unknown".
	rss, _ := d.peakRSS()
	d.ctl.CloseIdleConnections()
	// Signalling a child that already exited fails harmlessly.
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	return rss
}
