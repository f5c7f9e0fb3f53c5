package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"darklight/internal/serve"
	"darklight/internal/store"
)

// workload names one traffic pattern and the world it runs on. The why
// strings in BENCHMARK.json and bench/README.md say what each is for.
type workload struct {
	name  string
	world string
}

var workloads = []workload{
	{name: "serve-deep", world: "deep"},
	{name: "serve-wide", world: "wide"},
	{name: "mixed-reload", world: "deep"},
	{name: "ingest-wide", world: "wide"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// loadClients is how many keep-alive connections generate load: one per
// core of the 2-core box, and never more than nproc.
const loadClients = 2

// Each set-up repetition restarts the daemon from its snapshot and folds a
// journal batch in this many times. A restart takes a fifth of a second
// and a reload is mostly an fsync of the snapshot, so one hiccup is a
// large share of either: the extra samples steady their medians.
const (
	coldStartsPerRep = 2
	reloadsPerRep    = 2
)

// tally counts operations whose outcome was checked — requests, boots,
// reloads — and the ones that failed the check.
type tally struct {
	attempted int
	failed    int
	reasons   []string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	t.note(fmt.Sprintf(format, args...))
}

// note keeps the first few reasons for the report.
func (t *tally) note(why string) {
	if len(t.reasons) < 8 {
		t.reasons = append(t.reasons, why)
	}
}

// runner carries what every run of the harness shares.
type runner struct {
	root string // checkout root
	bin  string // built cmd/attributed
	sz   sizing
	tmp  string // scratch directory inside the checkout, removed on exit
}

func newRunner(sz sizing) (*runner, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	bin, err := buildDaemon(root)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		return nil, err
	}
	return &runner{root: root, bin: bin, sz: sz, tmp: tmp}, nil
}

func (r *runner) close() {
	// Best effort: .bench_build is ignored by git either way.
	_ = os.RemoveAll(r.tmp)
}

// deployment is the life of one index directory: the corpus files, the
// single journal writer, the daemon currently serving from it, and a copy
// of every snapshot generation a daemon has served, for the oracle.
type deployment struct {
	dir       string
	knownPath string
	queryPath string
	indexDir  string
	world     *world
	// journal is the one store handle that ever appends to this directory
	// (see README.md, "Journal-writer hazard"): a handle opened after the
	// daemon compacted the journal would restart at sequence 1.
	journal *store.Store
	lastSeq uint64
	batches int
	d       *daemon
	// snapshots maps the running daemon's serve-layer index version to the
	// directory that keeps the snapshot it served then.
	snapshots map[int]string
	kept      int
	peakRSS   float64
}

func (r *runner) newDeployment(w *world, dir string) (*deployment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	known, query, err := w.stage(dir)
	if err != nil {
		return nil, err
	}
	dep := &deployment{dir: dir, knownPath: known, queryPath: query, indexDir: filepath.Join(dir, "index"), world: w}
	if dep.journal, err = store.Open(dep.indexDir); err != nil {
		return nil, err
	}
	return dep, nil
}

// boot starts a daemon on the deployment — building the index when the
// directory has no snapshot, cold-starting from it otherwise — and keeps a
// link to the snapshot it serves.
func (dep *deployment) boot(bin string) (time.Duration, error) {
	d, err := startDaemon(bin, dep.knownPath, dep.queryPath, dep.indexDir, dep.world.daemonFlags())
	if err != nil {
		return 0, err
	}
	dep.d = d
	dep.snapshots = make(map[int]string)
	return d.bootTime, dep.keepSnapshot()
}

// keepSnapshot hard-links the snapshot the daemon just saved: Save
// replaces index.snap by rename, so the link keeps this generation.
func (dep *deployment) keepSnapshot() error {
	dir := filepath.Join(dep.dir, fmt.Sprintf("snapshot-%d", dep.kept))
	dep.kept++
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.Link(filepath.Join(dep.indexDir, "index.snap"), filepath.Join(dir, "index.snap")); err != nil {
		return err
	}
	dep.snapshots[dep.d.version] = dir
	return nil
}

func (dep *deployment) stop() {
	if dep.d == nil {
		return
	}
	if rss := dep.d.stop(); rss > dep.peakRSS {
		dep.peakRSS = rss
	}
	dep.d = nil
}

// reload appends the next journal batch, signals the daemon and waits for
// the new index. Only one reload runs at a time, and nothing is appended
// while one is in flight: the daemon's journal compaction renames the file
// under an O_APPEND writer.
func (dep *deployment) reload(t *tally) (time.Duration, error) {
	for _, rec := range dep.world.journalBatch(dep.batches) {
		seq, err := dep.journal.AppendThread(rec)
		if err != nil {
			return 0, err
		}
		dep.lastSeq = seq
	}
	dep.batches++
	took, seq, err := dep.d.reload()
	if err != nil {
		return 0, err
	}
	if seq != dep.lastSeq {
		t.fail("reload: healthz last_journal_seq %d, last appended %d", seq, dep.lastSeq)
	} else {
		t.ok()
	}
	return took, dep.keepSnapshot()
}

// result is what one end-to-end run measured.
type result struct {
	tally
	setup      time.Duration
	builds     []time.Duration // boots with no snapshot present
	coldStarts []time.Duration // boots from a snapshot
	reloads    []time.Duration // during set-up, nothing else running
	// loadedReloads are mixed-reload's, beside its traffic; what they cost
	// readers is in the window's latencies.
	loadedReloads []time.Duration
	latencies     []time.Duration // window requests, from due time
	late          []time.Duration // open-loop generator lateness
	verified      int             // window responses that matched the oracle
	busy          time.Duration   // time the window spent generating load
	peakRSS       float64
	snapshotMB    float64
	gauges        map[string]float64 // daemon /metrics after the window
}

// discard stops the deployment's daemon and removes its files.
func (dep *deployment) discard() {
	dep.stop()
	// Best effort: the runner removes its whole scratch tree on exit.
	_ = os.RemoveAll(dep.dir)
}

// setUp walks the operator path setupReps times — corpus → index →
// restarts from the snapshot → one journal batch folded in — booking each
// step's time in res. It returns the last repetition's deployment, daemon
// running, and the median time of a repetition.
func (r *runner) setUp(wl workload, seed uint64, res *result) (dep *deployment, rep time.Duration, err error) {
	defer func() {
		if err != nil && dep != nil {
			dep.discard()
		}
	}()
	var reps []time.Duration
	for i := 0; i < r.sz.setupReps; i++ {
		if dep != nil {
			dep.discard()
			res.notePeak(dep)
		}
		start := time.Now()
		w, err := generateWorld(wl.world, seed, r.sz)
		if err != nil {
			return nil, 0, err
		}
		if dep, err = r.newDeployment(w, filepath.Join(r.tmp, fmt.Sprintf("%s-%d", wl.name, i))); err != nil {
			return nil, 0, err
		}
		build, err := dep.boot(r.bin)
		if err != nil {
			return dep, 0, err
		}
		res.ok()
		res.builds = append(res.builds, build)
		st, err := os.Stat(filepath.Join(dep.indexDir, "index.snap"))
		if err != nil {
			return dep, 0, err
		}
		res.snapshotMB = float64(st.Size()) / mib
		for k := 0; k < coldStartsPerRep; k++ {
			dep.stop()
			cold, err := dep.boot(r.bin)
			if err != nil {
				return dep, 0, err
			}
			res.ok()
			res.coldStarts = append(res.coldStarts, cold)
		}
		for k := 0; k < reloadsPerRep; k++ {
			took, err := dep.reload(&res.tally)
			if err != nil {
				return dep, 0, err
			}
			res.reloads = append(res.reloads, took)
		}
		reps = append(reps, time.Since(start))
	}
	return dep, time.Duration(median(secondsAll(reps)) * float64(time.Second)), nil
}

// runEndToEnd is one measured run of a workload: set the deployment up
// (several times, for a steady set-up time), warm it, drive the window,
// stop everything, then check every response against the oracle.
func (r *runner) runEndToEnd(wl workload, seed uint64, window time.Duration) (*result, error) {
	res := &result{}
	dep, rep, err := r.setUp(wl, seed, res)
	if err != nil {
		return nil, err
	}
	defer dep.discard()

	// The oracle's own preparation is harness work, not set-up.
	orc, err := newOracle(dep.queryPath)
	if err != nil {
		return nil, err
	}

	// Warm-up: one full cycle over every distinct request of the window, so
	// the lazy final-config document cache is filled before it opens.
	warmStart := time.Now()
	var (
		reqs   []request
		warmup []checked
	)
	switch wl.name {
	case "serve-deep":
		reqs = requestsFor(orc.names, matchRequest)
	case "serve-wide", "ingest-wide":
		reqs = requestsFor(orc.names, rankRequest)
	case "mixed-reload":
		var ranked []sample
		if reqs, ranked, err = mixedRequests(dep, orc.names, seed, r.sz.mixedAliases); err != nil {
			return nil, err
		}
		warmup = append(warmup, checked{reqs, ranked, dep.snapshots})
	}
	warmup = append(warmup, checked{reqs, onePass(dep.d.base, reqs, loadClients), dep.snapshots})
	res.setup = rep + time.Since(warmStart)

	var timed []checked
	switch wl.name {
	case "serve-deep", "serve-wide":
		samples, elapsed := closedLoop(dep.d.base, reqs, loadClients, window)
		res.busy = elapsed
		timed = []checked{{reqs, samples, dep.snapshots}}
	case "mixed-reload":
		// The clients walk the seeded mix instead of the request list.
		cycle := make([]request, 0, mixedBlocks*len(mixBlock))
		for _, i := range mixedOrder(seed, len(reqs)/4) {
			cycle = append(cycle, reqs[i])
		}
		samples, err := mixedWindow(dep, cycle, window, res)
		if err != nil {
			return nil, err
		}
		timed = []checked{{cycle, samples, dep.snapshots}}
	case "ingest-wide":
		// No standing traffic: restart from the snapshot over and over, and
		// after each restart send one first-touch cycle of rank requests —
		// the only requests this workload times. Every restart serves the
		// same snapshot as index version 1.
		serving := map[int]string{1: dep.snapshots[dep.d.version]}
		for start := time.Now(); time.Since(start) < window; {
			dep.stop()
			cold, err := dep.boot(r.bin)
			if err != nil {
				return nil, err
			}
			res.ok()
			res.coldStarts = append(res.coldStarts, cold)
			passStart := time.Now()
			samples := onePass(dep.d.base, reqs, loadClients)
			res.busy += time.Since(passStart)
			timed = append(timed, checked{reqs, samples, serving})
		}
	}
	// The gauges feed only the traced run's runtime.* numbers; a failed
	// scrape leaves them 0.
	res.gauges, _ = dep.d.gauges()
	dep.stop()
	res.notePeak(dep)

	// Verification, with the daemon gone and the clock stopped.
	for _, c := range warmup {
		res.check(orc, c)
	}
	for _, c := range timed {
		res.verified += res.check(orc, c)
		for _, s := range c.samples {
			res.latencies = append(res.latencies, s.latency)
		}
	}
	return res, nil
}

// mixedWindow runs the closed loop while a second goroutine folds journal
// batches in one after another, without a pause, until the window ends:
// every request of the window is answered beside a running reload, and
// req_per_s is the read capacity a reload leaves. See README.md, "What
// differs", for why this is neither an open loop nor a few spaced-out
// reloads.
func mixedWindow(dep *deployment, cycle []request, window time.Duration, res *result) ([]sample, error) {
	var (
		wg        sync.WaitGroup
		reloadErr error
	)
	wg.Add(1)
	start := time.Now()
	go func() {
		defer wg.Done()
		for time.Since(start) < window {
			took, err := dep.reload(&res.tally)
			if err != nil {
				reloadErr = err
				return
			}
			res.loadedReloads = append(res.loadedReloads, took)
		}
	}()
	samples, elapsed := closedLoop(dep.d.base, cycle, loadClients, window)
	res.busy = elapsed
	wg.Wait()
	return samples, reloadErr
}

func requestsFor(names []string, build func(alias string) request) []request {
	out := make([]request, len(names))
	for i, name := range names {
		out[i] = build(name)
	}
	return out
}

// checked is one batch of responses and what is needed to verify them.
type checked struct {
	reqs      []request
	samples   []sample
	snapshots map[int]string
}

// check verifies a batch against the oracle, books every response in the
// tally, and returns how many were right.
func (res *result) check(orc *oracle, c checked) int {
	failed, reasons := orc.verify(c.reqs, c.samples, c.snapshots)
	res.attempted += len(c.samples)
	res.failed += failed
	for _, why := range reasons {
		res.note(why)
	}
	return len(c.samples) - failed
}

// mixedRequests picks the aliases mixed-reload draws from and lays their
// requests out as [alias][match, rank, rescore, inline]. A rescore's
// candidates come from a prior rank, so the ranks are sent first; their
// samples are returned, re-pointed at the final list, for verification.
func mixedRequests(dep *deployment, names []string, seed uint64, n int) ([]request, []sample, error) {
	r := rand.New(rand.NewSource(int64(seed)))
	picked := append([]string(nil), names...)
	r.Shuffle(len(picked), func(i, j int) { picked[i], picked[j] = picked[j], picked[i] })
	if len(picked) > n {
		picked = picked[:n]
	}
	ranks := make([]request, len(picked))
	for i, name := range picked {
		ranks[i] = rankRequest(name)
	}
	ranked := onePass(dep.d.base, ranks, loadClients)
	reqs := make([]request, 0, 4*len(picked))
	samples := make([]sample, 0, len(picked))
	for i, name := range picked {
		var resp serve.RankResponse
		if ranked[i].err != nil || json.Unmarshal(ranked[i].body, &resp) != nil || len(resp.Candidates) == 0 {
			return nil, nil, fmt.Errorf("bench: rank %s before rescore: status %d, %v: %s", name, ranked[i].status, ranked[i].err, ranked[i].body)
		}
		candidates := make([]string, len(resp.Candidates))
		for j, c := range resp.Candidates {
			candidates[j] = c.Alias
		}
		ranked[i].req = len(reqs) + 1
		samples = append(samples, ranked[i])
		reqs = append(reqs, matchRequest(name), rankRequest(name), rescoreRequest(name, candidates), dep.world.inlineRequest(name))
	}
	return reqs, samples, nil
}

// notePeak folds a finished deployment's peak RSS into the run's.
func (res *result) notePeak(dep *deployment) {
	if dep.peakRSS > res.peakRSS {
		res.peakRSS = dep.peakRSS
	}
}
