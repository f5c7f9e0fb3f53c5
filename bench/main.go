// Command bench is the repository's one full-path benchmark: it builds
// cmd/attributed, boots it as a child process with its default flags, and
// drives it over loopback HTTP on four named workloads, checking every
// response against the library path. A separate traced run executes the
// same inputs in process with a span around each layer call and derives
// the per-layer numbers. See README.md beside this file, and
// BENCHMARK.json at the repository root for the metric contract.
//
//	bash bench/run.sh --workload serve-deep --seed 1 --seconds 8 --trace 0
//	bash bench/run.sh -workload all          # every workload, both runs
//	bash bench/run.sh -aa                    # two full sets, gaps vs bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spec is BENCHMARK.json: the metric names, units, directions and
// regression bounds live there and nowhere else.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(root string) (*spec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// endToEnd turns one run's measurements into the end-to-end metrics.
func endToEnd(res *result) map[string]metric {
	lat := msAll(res.latencies)
	return map[string]metric{
		"setup_s":        {res.setup.Seconds(), "s"},
		"req_per_s":      {float64(res.verified) / res.busy.Seconds(), "1/s"},
		"latency_p50_ms": {median(lat), "ms"},
		"latency_p90_ms": {percentile(lat, 90), "ms"},
		"build_s":        {median(secondsAll(res.builds)), "s"},
		"cold_start_s":   {median(secondsAll(res.coldStarts)), "s"},
		"reload_s":       {median(secondsAll(res.reloads)), "s"},
		"peak_rss_mb":    {res.peakRSS, "MB"},
		"snapshot_mb":    {res.snapshotMB, "MB"},
	}
}

// environment records where the numbers came from.
func environment(root string, seed uint64) map[string]any {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return map[string]any{
		"seed": seed, "commit": commit, "go": runtime.Version(), "cpu": cpu,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
	}
}

func printMetrics(title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println(title)
	for _, name := range names {
		fmt.Printf("  %-34s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
}

// runOne performs one run of one workload and returns its report plus the
// sample counts behind it.
func (r *runner) runOne(wl workload, seed uint64, window time.Duration, traced bool) (*report, map[string]int, error) {
	if traced {
		m, t, err := r.runTraced(wl, seed)
		if err != nil {
			return nil, nil, err
		}
		for _, why := range t.reasons {
			fmt.Fprintln(os.Stderr, "FAILED:", why)
		}
		return &report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil, nil
	}
	res, err := r.runEndToEnd(wl, seed, window)
	if err != nil {
		return nil, nil, err
	}
	for _, why := range res.reasons {
		fmt.Fprintln(os.Stderr, "FAILED:", why)
	}
	counts := map[string]int{"requests": len(res.latencies), "builds": len(res.builds),
		"cold_starts": len(res.coldStarts), "reloads": len(res.reloads), "reloads_under_load": len(res.loadedReloads),
		"latency_tail_supported_pct": int(highestSupported(len(res.latencies)))}
	return &report{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: endToEnd(res)}, counts, nil
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: all, or one of serve-deep, serve-wide, mixed-reload, ingest-wide")
		seed    = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", 0, "length of the timed window (0: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1: the traced in-process run, reporting the per-layer metrics")
		aa      = flag.Bool("aa", false, "run two full sets on the same binary and compare them with the bounds")
		smoke   = flag.Bool("smoke", false, "tiny worlds and short windows: every code path in a few seconds")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *aa, *smoke); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced, aa, smoke bool) error {
	sz := fullSizing
	if smoke {
		sz = smokeSizing
	}
	r, err := newRunner(sz)
	if err != nil {
		return err
	}
	defer r.close()
	// A signal must not leave a daemon or a scratch directory behind.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		killChildren()
		r.close()
		os.Exit(130)
	}()

	sp, err := readSpec(r.root)
	if err != nil {
		return err
	}
	if seconds == 0 {
		seconds = float64(sp.RunSeconds)
		if smoke {
			seconds = 2
		}
	}
	window := time.Duration(seconds * float64(time.Second))
	env, _ := json.Marshal(environment(r.root, seed))
	fmt.Printf("env %s\n", env)

	if aa {
		return r.runAA(sp, seed, window)
	}
	if name != "all" {
		wl, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		rep, counts, err := r.runOne(wl, seed, window, traced)
		if err != nil {
			return err
		}
		if counts != nil {
			c, _ := json.Marshal(counts)
			fmt.Printf("samples %s\n", c)
		}
		printMetrics(wl.name, rep.Metrics)
		out, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}
	set, err := r.runSet(seed, window)
	if err != nil {
		return err
	}
	out, err := json.Marshal(set)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	for _, rep := range set {
		if !rep.Correct {
			return fmt.Errorf("a workload failed its checks")
		}
	}
	return nil
}

// runSet runs every workload end to end and traced, printing each metric
// by name, and returns the reports keyed "<workload>" and
// "<workload>/traced".
func (r *runner) runSet(seed uint64, window time.Duration) (map[string]*report, error) {
	set := make(map[string]*report)
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			rep, counts, err := r.runOne(wl, seed, window, traced)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", wl.name, err)
			}
			key := wl.name
			if traced {
				key += "/traced"
			}
			set[key] = rep
			printMetrics(fmt.Sprintf("%s  correct=%v attempted=%d failed=%d samples=%v", key, rep.Correct, rep.Attempted, rep.Failed, counts), rep.Metrics)
		}
	}
	return set, nil
}
