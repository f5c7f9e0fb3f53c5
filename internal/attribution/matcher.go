package attribution

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"darklight/internal/features"
	"darklight/internal/obs"
	"darklight/internal/prefilter"
	"darklight/internal/sparse"
)

// Matcher metrics. Every value is a count of work performed — never a
// duration — so totals are identical for any worker count and with
// tracing on or off.
var (
	mRankTotal    = obs.Default().Counter("match_rank_total", "stage-1 rankings computed")
	mRescoreTotal = obs.Default().Counter("match_rescore_total", "stage-2 rescorings computed")
	mDecisions    = obs.Default().CounterVec("match_decisions_total", "final match decisions", "decision")
	mAccepted     = mDecisions.With("accepted")
	mRejected     = mDecisions.With("rejected")
	mCandidates   = obs.Default().Histogram("match_candidates", "stage-1 candidate-list sizes",
		[]float64{0, 1, 2, 5, 10, 20, 50, 100})
	mKnown     = obs.Default().Gauge("matcher_known_subjects", "known subjects indexed by the most recent matcher build")
	mVocabSize = obs.Default().Gauge("matcher_vocab_grams", "reduction-vocabulary size of the most recent matcher build")
	mPostings  = obs.Default().Gauge("matcher_posting_features", "distinct gram features in the most recent matcher's inverted index")
)

// Options configure a Matcher. The zero value is not usable; start from
// DefaultOptions.
type Options struct {
	// K is the candidate-set size of the reduction stage.
	K int
	// Threshold is the acceptance score for the final pair decision.
	Threshold float64
	// Reduction is the stage-1 feature configuration (Table II left).
	Reduction features.Config
	// Final is the stage-2 feature configuration (Table II right).
	Final features.Config
	// UseActivity includes the daily activity profile in the score.
	UseActivity bool
	// ActivityWeight is the relative L2 norm of the activity block
	// (the n-gram block has norm 1). Ignored when UseActivity is false.
	ActivityWeight float64
	// FreqWeight is the relative L2 norm of the 42 punctuation/digit/
	// special-char frequency dimensions.
	FreqWeight float64
	// TwoStage enables the stage-2 TF-IDF recomputation. Disabling it
	// reuses stage-1 scores (an ablation; §IV-H shows two-stage wins).
	TwoStage bool
	// Workers bounds parallelism; 0 means GOMAXPROCS.
	Workers int
	// Incremental retains the corpus gram counters and each subject's
	// reduction-config document after the build, enabling State()
	// (persistence) and Fold (delta updates without a full rebuild). Costs
	// roughly the size of the extracted corpus in memory; the built index
	// is bit-identical either way.
	Incremental bool
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{
		K:              DefaultK,
		Threshold:      DefaultThreshold,
		Reduction:      features.ReductionConfig(),
		Final:          features.FinalConfig(),
		UseActivity:    true,
		ActivityWeight: 0.7,
		FreqWeight:     0.2,
		TwoStage:       true,
	}
}

// weights returns the effective block weights.
func (o Options) weights() Weights {
	w := Weights{Freq: o.FreqWeight, Activity: o.ActivityWeight}
	if !o.UseActivity {
		w.Activity = 0
	}
	return w
}

// WithDefaults resolves the zero-valued knobs — K, Workers — to what a
// matcher built from o runs with, the form Matcher.Options reports.
func (o Options) WithDefaults() Options {
	if o.K <= 0 {
		o.K = DefaultK
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Scored is a candidate with its similarity score.
type Scored struct {
	Name  string
	Score float64
}

// MatchResult is the full outcome for one unknown alias.
type MatchResult struct {
	// Unknown is the queried alias name.
	Unknown string
	// Candidates is the stage-1 top-k, best first.
	Candidates []Scored
	// Rescored is the stage-2 scoring of the same candidates, best first.
	// Equal to Candidates when TwoStage is off.
	Rescored []Scored
	// Best is Rescored[0] (zero value when the known set is empty).
	Best Scored
	// Accepted reports Best.Score >= Threshold — the pair the algorithm
	// outputs (§IV-I).
	Accepted bool
}

// Matcher links unknown aliases against a fixed set of known aliases.
// Construction precomputes the reduction vocabulary, an inverted index
// over the known subjects' n-gram blocks, and their dense frequency and
// activity blocks; after that Match and MatchAll are safe for concurrent
// use.
type Matcher struct {
	// given is the options as the caller passed them, opts their resolved
	// form (WithDefaults). A snapshot persists given, so that what was left
	// to default — Workers above all — resolves again where it is loaded.
	given Options
	opts  Options
	known []Subject

	vocab *features.Vocabulary
	// Inverted index over gram features, as one CSR arena: the postings of
	// gram feature g are postSubj[postOff[g]:postOff[g+1]] (known-subject
	// indices, ascending) beside the same range of postVal (their normalised
	// values). Scoring an unknown touches only the ranges of features the
	// unknown actually has. invertForward derives the arena from the
	// forward lists below.
	postOff  []uint32
	postSubj []int32
	postVal  []float32
	// mask records per-subject block presence (maskGrams/maskFreq/maskAct
	// bits): the subject-side norm depends only on which blocks exist.
	mask []uint8
	// freqs and acts are the dense normalised frequency and activity
	// blocks (nil entries when absent).
	freqs [][]float64
	acts  [][]float64
	// fwdIdx/fwdVal are the forward gram index: each subject's sorted
	// feature ids and the same float32 values its postings carry. The
	// pre-filtered paths score one subject at a time with an id-ordered
	// merge over these lists, reproducing the posting sweep's float32
	// accumulation bit for bit.
	fwdIdx [][]uint32
	fwdVal [][]float32
	// termCaps holds each gram feature's largest posting value — the
	// per-term contribution caps the pruned mode builds score upper bounds
	// from — read off the posting arena by the first pruned query (capsOnce).
	capsOnce sync.Once
	termCaps []float32
	// lshIdx lazily caches one immutable LSH index per operating point
	// actually queried (the default point plus any per-query overrides).
	// lshSets caches each subject's informative gram-id set — the forward
	// list with weightless grams (value below prefilter.MinHashValueFloor)
	// removed — built once on the first LSH query and shared by every
	// operating point.
	lshMu   sync.Mutex
	lshIdx  map[prefilter.LSHParams]*prefilter.LSH
	lshSets [][]uint32
	// bufPool backs the bufferless entry points: the serve path calls Rank
	// per request, and without pooling every request would allocate two
	// known-set-sized accumulators.
	bufPool sync.Pool
	// byName maps a known subject's name to its index (last wins on
	// duplicates, matching historical Rescore behaviour).
	byName map[string]int
	// finalDocs lazily caches the stage-2 (Final-config) extraction of each
	// known subject: the same prolific candidates surface in top-k after
	// top-k, and re-extracting their 1,500-word documents per query is the
	// single largest cost of Rescore. Only subjects that actually appear in
	// a candidate list are ever materialised — none at all when docs below
	// already holds the same extractions (finish seeds the cache with them).
	finalDocs *features.DocCache
	// sameExtract records that the reduction and final configs produce
	// identical raw extractions (they differ only in vocabulary budgets in
	// the paper's setup), letting Match share one unknown-document
	// extraction across both stages.
	sameExtract bool
	// stats and docs are retained only under Options.Incremental: the
	// corpus gram counters the vocabulary was built from, and each known
	// subject's reduction-config document (aligned with known).
	// Together they let Fold subtract a subject's old counts, add its new
	// ones, and re-run only the index pass — and let State() persist
	// enough to do the same after a restart.
	stats *features.VocabBuilder
	docs  []*features.SortedDoc
}

// Subject block-presence bits of Matcher.mask.
const (
	maskGrams uint8 = 1 << iota
	maskFreq
	maskAct
)

// maskNorm is normOf over a presence mask.
func maskNorm(mask uint8, w Weights) float64 {
	return normOf(mask&maskGrams != 0, mask&maskFreq != 0, mask&maskAct != 0, w)
}

// matchBuffers is per-worker scratch reused across Match calls: the dense
// score accumulators sized to the known set, the top-k heap, and the
// pre-filter's per-query scratch. Each MatchAll worker owns one; the
// exported entry points pass nil and draw from the matcher's pool.
type matchBuffers struct {
	scores   []float64
	scores32 []float32
	heap     []heapEntry

	// Pre-filter scratch (fully overwritten each query, never zeroed).
	qv32   []float32 // query gram values in the exact scan's float32 form
	imps   []float64 // per-term impacts
	order  []int     // impact-descending term order
	bounds prefilter.BoundHeap
	cands  []int32  // LSH candidate union
	lshq   []uint32 // query's informative gram-id set (MinHash floor applied)

	// Pruned-walk scratch. pscore is all-zero BETWEEN queries — rankPruned
	// clears exactly the entries it touched on its way out, so a walk that
	// reaches 500 of 100k subjects costs 500 writes, not an O(N) clear.
	// touched lists those entries.
	pscore  []float64
	touched []int32

	// Stage-2 scratch, rebuilt by every rescore: the candidates' subject
	// indices and cached documents, and the per-query candidate vocabulary
	// with its postings and build buffers. Nothing a rescore returns aliases
	// any of it.
	idxs  []int
	docs  []*features.SortedDoc
	vocab features.CandidateVocab

	uvec, cvec sparse.Vector // stage 1's query vector; cvec is only its sort's second buffer
}

// pruneBufs returns the pruned walk's partial-score accumulator (length
// n, all zero by the invariant above) and the empty touched list.
func (b *matchBuffers) pruneBufs(n int) ([]float64, []int32) {
	if cap(b.pscore) < n {
		b.pscore = make([]float64, n)
	}
	b.pscore = b.pscore[:n]
	return b.pscore, b.touched[:0]
}

// queryVals fills and returns the float32 form of the query gram values —
// the representation the exact posting sweep multiplies by.
func (b *matchBuffers) queryVals(vals []float64) []float32 {
	if cap(b.qv32) < len(vals) {
		b.qv32 = make([]float32, len(vals))
	}
	b.qv32 = b.qv32[:len(vals)]
	for i, v := range vals {
		b.qv32[i] = float32(v)
	}
	return b.qv32
}

// impactBuf returns an uninitialised n-length impact buffer.
func (b *matchBuffers) impactBuf(n int) []float64 {
	if cap(b.imps) < n {
		b.imps = make([]float64, n)
	}
	b.imps = b.imps[:n]
	return b.imps
}

// scoreBufs returns zeroed float64/float32 accumulators of length n,
// reusing capacity from earlier queries.
func (b *matchBuffers) scoreBufs(n int) ([]float64, []float32) {
	if cap(b.scores) < n {
		b.scores = make([]float64, n)
	} else {
		b.scores = b.scores[:n]
		clear(b.scores)
	}
	if cap(b.scores32) < n {
		b.scores32 = make([]float32, n)
	} else {
		b.scores32 = b.scores32[:n]
		clear(b.scores32)
	}
	return b.scores, b.scores32
}

// NewMatcher indexes the known subjects. The known slice is retained (the
// second stage re-reads candidate texts); callers must not mutate it.
func NewMatcher(known []Subject, opts Options) (*Matcher, error) {
	return NewMatcherContext(context.Background(), known, opts)
}

// NewMatcherContext is NewMatcher under a context that may carry an
// obs.Tracer: the vocabulary pass emits a "matcher.vocab" span and the
// index pass a "matcher.index" span, each with one shard child per worker
// chunk. The built index is bit-identical with tracing on or off.
func NewMatcherContext(ctx context.Context, known []Subject, given Options) (*Matcher, error) {
	opts := given.WithDefaults()
	if err := validateOptions(opts); err != nil {
		return nil, err
	}

	// Pass 1: corpus statistics → vocabulary. Each worker extracts a
	// contiguous chunk of subjects into a private builder and settles it —
	// sorted-run merges, no hash map — and the builders merge in shard order.
	// Corpus counters are plain sums and the cut breaks frequency ties by
	// gram id, so the merged vocabulary is bit-identical to a sequential
	// build for any worker count. A builder lets go of a document once its
	// batch is merged in — keeping every doc alive would cost ~1 MB per
	// subject — and only Incremental retains the documents for Fold/State.
	shards := shardCount(opts.Workers, len(known))
	vctx, vspan := obs.Start(ctx, "matcher.vocab")
	vspan.AddItems(int64(len(known)))
	builders := make([]*features.VocabBuilder, shards)
	shardErr := make([]error, shards)
	var docs []*features.SortedDoc
	if opts.Incremental {
		docs = make([]*features.SortedDoc, len(known))
	}
	parallelChunks(shards, len(known), func(s, lo, hi int) {
		_, ss := obs.Start(vctx, "matcher.vocab.shard")
		ss.SetWorker(s)
		ss.AddItems(int64(hi - lo))
		defer ss.End()
		vb := features.NewVocabBuilder(opts.Reduction)
		for i := lo; i < hi; i++ {
			sd := features.Extract(known[i].Text, opts.Reduction)
			if docs != nil {
				docs[i] = sd
			}
			vb.AddSorted(sd)
		}
		// Settled here so the merge runs on this worker; the builder keeps
		// its error for Merge and Build to return.
		shardErr[s] = vb.Settle()
		builders[s] = vb
	})
	vb, err := builders[0], shardErr[0]
	for _, o := range builders[1:] {
		if err == nil {
			err = vb.Merge(o)
		}
	}
	vspan.End()
	if err != nil {
		return nil, fmt.Errorf("attribution: corpus counters: %w", err)
	}
	return foldTail(ctx, known, docs, vb, given)
}

// validateOptions checks the feature configurations of already-defaulted
// options.
func validateOptions(opts Options) error {
	if err := opts.Reduction.Validate(); err != nil {
		return fmt.Errorf("attribution: reduction config: %w", err)
	}
	if opts.TwoStage {
		if err := opts.Final.Validate(); err != nil {
			return fmt.Errorf("attribution: final config: %w", err)
		}
	}
	return nil
}

// newMatcherFromDocs runs the index pass over a frozen vocabulary — the one
// way a matcher comes to exist: a build, a Fold and a snapshot load all end
// in foldTail, which ends here. docs, when non-nil, supplies each subject's
// reduction document (a build under Incremental, a Fold and a load have them
// at hand); when nil every subject is re-extracted from its
// text. The per-entry vectorizer arithmetic is identical either way, so the
// paths assemble bit-identical indexes. given must already have been
// validated in its resolved form; stats and docs are retained on the matcher
// only under Incremental.
func newMatcherFromDocs(ctx context.Context, known []Subject, docs []*features.SortedDoc, stats *features.VocabBuilder, vocab *features.Vocabulary, given Options) (*Matcher, error) {
	opts := given.WithDefaults()
	m := &Matcher{given: given, opts: opts, known: known, vocab: vocab}
	if opts.Incremental {
		m.stats = stats
		m.docs = docs
	}
	shards := shardCount(opts.Workers, len(known))

	// Pass 2: re-extract and build blocks in one parallel sweep over the
	// same contiguous chunks. A shard writes only its own subjects' slots —
	// forward gram index, dense blocks, block-presence masks — so any worker
	// count builds the serial result.
	m.mask = make([]uint8, len(known))
	m.freqs = make([][]float64, len(known))
	m.acts = make([][]float64, len(known))
	m.fwdIdx = make([][]uint32, len(known))
	m.fwdVal = make([][]float32, len(known))
	ictx, ispan := obs.Start(ctx, "matcher.index")
	ispan.AddItems(int64(len(known)))
	parallelChunks(shards, len(known), func(s, lo, hi int) {
		_, ss := obs.Start(ictx, "matcher.index.shard")
		ss.SetWorker(s)
		ss.AddItems(int64(hi - lo))
		defer ss.End()
		var scratch sparse.Vector
		for i := lo; i < hi; i++ {
			var d *features.SortedDoc
			if docs != nil {
				d = docs[i]
			} else {
				d = features.Extract(known[i].Text, opts.Reduction)
			}
			// A fresh vector per subject: its indices stay as the forward list.
			var vec sparse.Vector
			m.vocab.VectorizeGramsInto(&vec, &scratch, d)
			b := blocksOf(vec, d, &known[i])
			var msk uint8
			if b.grams.Len() > 0 {
				msk |= maskGrams
			}
			if b.freq != nil {
				msk |= maskFreq
			}
			if b.act != nil {
				msk |= maskAct
			}
			m.mask[i] = msk
			m.freqs[i] = b.freq
			m.acts[i] = b.act
			vals := make([]float32, len(b.grams.Idx))
			for k, v := range b.grams.Val {
				vals[k] = float32(v)
			}
			m.fwdIdx[i] = b.grams.Idx
			m.fwdVal[i] = vals
		}
	})
	m.lshIdx = make(map[prefilter.LSHParams]*prefilter.LSH)
	err := m.finish()
	ispan.End()
	return m, err
}

// finish ends the index pass: it inverts the forward lists into the posting
// arena and sets up what stage 2 keeps for the matcher's lifetime — the
// name index and the Final-config document cache.
func (m *Matcher) finish() error {
	var err error
	m.postOff, m.postSubj, m.postVal, err = invertForward(m.fwdIdx, m.fwdVal, int(m.vocab.FreqOffset()))
	if err != nil {
		return fmt.Errorf("attribution: posting inversion: %w", err)
	}
	m.byName = make(map[string]int, len(m.known))
	texts := make([]string, len(m.known))
	for i := range m.known {
		m.byName[m.known[i].Name] = i
		texts[i] = m.known[i].Text
	}
	m.finalDocs = features.NewDocCache(m.opts.Final, texts)
	m.sameExtract = m.opts.Reduction.SameExtraction(m.opts.Final)
	if m.docs != nil && m.sameExtract {
		// The retained reduction documents are the Final-config extractions
		// bit for bit: stage 2 reads them instead of extracting its own.
		m.finalDocs.Seed(m.docs)
	}

	distinct := 0
	for g := 1; g < len(m.postOff); g++ {
		if m.postOff[g] > m.postOff[g-1] {
			distinct++
		}
	}
	mKnown.Set(float64(len(m.known)))
	mVocabSize.Set(float64(m.vocab.NumWordGrams() + m.vocab.NumCharGrams()))
	mPostings.Set(float64(distinct))
	return nil
}

// invertForward turns per-subject forward lists (fwdIdx[i][k] is a gram
// feature id, fwdVal[i][k] its value) into the CSR posting arena over dims
// gram features: off[g]..off[g+1] bounds feature g's postings in subj and
// val. It is a counting sort on the feature id that visits subjects in
// ascending order, so within a feature the subjects ascend — the order
// stage 1 accumulates float32 dot products in. A feature id outside the
// vocabulary, lists of unequal length and an arena past 32-bit offsets are
// errors.
func invertForward(fwdIdx [][]uint32, fwdVal [][]float32, dims int) (off []uint32, subj []int32, val []float32, err error) {
	off = make([]uint32, dims+1)
	total := 0
	for i, ids := range fwdIdx {
		if len(ids) != len(fwdVal[i]) {
			return nil, nil, nil, fmt.Errorf("subject %d forward lists disagree (%d ids, %d values)", i, len(ids), len(fwdVal[i]))
		}
		for _, g := range ids {
			if int(g) >= dims {
				return nil, nil, nil, fmt.Errorf("gram id %d outside the %d-gram vocabulary", g, dims)
			}
			off[g+1]++
		}
		total += len(ids)
	}
	if uint64(total) > math.MaxUint32 || len(fwdIdx) > math.MaxInt32 {
		return nil, nil, nil, fmt.Errorf("%d postings over %d subjects overflow the arena's 32-bit offsets", total, len(fwdIdx))
	}
	for g := 0; g < dims; g++ {
		off[g+1] += off[g]
	}
	subj = make([]int32, total)
	val = make([]float32, total)
	next := slices.Clone(off[:dims])
	for i, ids := range fwdIdx {
		vals := fwdVal[i]
		for k, g := range ids {
			p := next[g]
			subj[p], val[p] = int32(i), vals[k]
			next[g] = p + 1
		}
	}
	return off, subj, val, nil
}

// shardCount bounds a chunked fan-out: at most one shard per item, at
// least one shard overall.
func shardCount(workers, n int) int {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// parallelChunks splits [0, n) into `shards` contiguous ranges and runs
// fn(shard, lo, hi) for each concurrently. Static chunking (rather than
// atomic work-stealing) gives every shard a deterministic item range, which
// the ingest build relies on for order-preserving merges.
func parallelChunks(shards, n int, fn func(shard, lo, hi int)) {
	if shards <= 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		lo, hi := s*n/shards, (s+1)*n/shards
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			fn(s, lo, hi)
		}(s, lo, hi)
	}
	wg.Wait()
}

// NumKnown returns the size of the known set.
func (m *Matcher) NumKnown() int { return len(m.known) }

// Vocabulary exposes the reduction vocabulary (for reports and tests).
func (m *Matcher) Vocabulary() *features.Vocabulary { return m.vocab }

// Rank runs stage 1 — the exact scan — under the matcher's configured
// weights.
func (m *Matcher) Rank(unknown *Subject, k int) []Scored {
	out, _ := m.RankDetailed(unknown, MatchOptions{K: k})
	return out
}

// RankWith runs stage 1 — cosine similarity of the unknown against every
// known subject — under explicit block weights, returning the top-k best
// first. One index serves any weighting: Table III and Fig. 4 compare
// "text only" (Activity 0) against "all features" from the same matcher.
func (m *Matcher) RankWith(unknown *Subject, k int, w Weights) []Scored {
	out, _ := m.RankDetailed(unknown, MatchOptions{K: k, Weights: &w})
	return out
}

// RankDetailed runs stage 1 under per-query options and reports what the
// scan did (mode, subjects scored and skipped) alongside the top-k.
func (m *Matcher) RankDetailed(unknown *Subject, o MatchOptions) ([]Scored, prefilter.Stats) {
	doc := features.Extract(unknown.Text, m.opts.Reduction)
	return m.rankDoc(doc, unknown, o, nil)
}

// rankDoc ranks an already-extracted reduction-config document,
// with optional per-worker scratch buffers (drawn from the matcher's pool
// when nil). It resolves the per-query options against the matcher's
// defaults and dispatches to the scan the query names; see rank.go.
func (m *Matcher) rankDoc(doc *features.SortedDoc, unknown *Subject, o MatchOptions, buf *matchBuffers) ([]Scored, prefilter.Stats) {
	mRankTotal.Inc()
	k := o.K
	if k <= 0 {
		k = m.opts.K
	}
	w := m.opts.weights()
	if o.Weights != nil {
		w = *o.Weights
	}
	if buf == nil {
		buf = m.getBuf()
		defer m.putBuf(buf)
	}
	m.vocab.VectorizeGramsInto(&buf.uvec, &buf.cvec, doc)
	ub := blocksOf(buf.uvec, doc, unknown)
	uNorm := ub.norm(w)
	mode := o.Mode
	if uNorm == 0 {
		// A zero-norm query scores 0 against every subject under every
		// mode; take the exact zero path so the k-padding (all-zero
		// entries in name order) matches historical output.
		scores, _ := buf.scoreBufs(len(m.known))
		st := prefilter.Stats{Mode: prefilter.ModeExact, Candidates: len(m.known), Scored: len(m.known)}
		out, ev := topKScores(m.known, scores, k, &buf.heap)
		st.Evictions = ev
		prefilter.Observe(st)
		return out, st
	}
	if mode == prefilter.ModeLSH && ub.grams.Len() == 0 {
		// Nothing to hash: stay lossless rather than return nothing.
		mode = prefilter.ModeExact
	}
	var out []Scored
	var st prefilter.Stats
	switch mode {
	case prefilter.ModePruned:
		out, st = m.rankPruned(&ub, k, w, uNorm, buf, o.prunedParams())
	case prefilter.ModeLSH:
		out, st = m.rankLSH(&ub, k, w, uNorm, buf, o.lshParams())
	default:
		out, st = m.rankExact(&ub, k, w, uNorm, buf)
	}
	prefilter.Observe(st)
	return out, st
}

// getBuf and putBuf recycle scratch buffers for the bufferless entry
// points. MatchAll workers bypass the pool with worker-owned buffers.
func (m *Matcher) getBuf() *matchBuffers {
	if b, ok := m.bufPool.Get().(*matchBuffers); ok {
		return b
	}
	return &matchBuffers{}
}

func (m *Matcher) putBuf(b *matchBuffers) { m.bufPool.Put(b) }

// normOf is the concatenated-vector norm of blocks present as given: each
// block is unit-normalised, so only presence matters.
func normOf(hasGrams, hasFreq, hasAct bool, w Weights) float64 {
	n := 0.0
	if hasGrams {
		n += 1
	}
	if hasFreq {
		n += w.Freq * w.Freq
	}
	if hasAct {
		n += w.Activity * w.Activity
	}
	return math.Sqrt(n)
}

// Rescore runs stage 2 on a candidate list: rebuild the vocabulary and
// TF-IDF over only the candidates' documents (changing the selected
// n-grams and hence every vector, including the unknown's), then rescore
// by cosine under the matcher's weights. Candidate documents come from the
// matcher's lazy Final-config cache, so repeat candidates cost one
// extraction per matcher lifetime, not one per query.
func (m *Matcher) Rescore(unknown *Subject, candidates []Scored) []Scored {
	buf := m.getBuf()
	defer m.putBuf(buf)
	return m.rescoreDoc(nil, unknown, candidates, buf)
}

// rescoreDoc is Rescore with an optional pre-extracted unknown
// document (valid only when the reduction and final configs share
// extraction — Match checks m.sameExtract before passing one) on the
// caller's scratch.
func (m *Matcher) rescoreDoc(udoc *features.SortedDoc, unknown *Subject, candidates []Scored, buf *matchBuffers) []Scored {
	mRescoreTotal.Inc()
	idxs, docs := buf.idxs[:0], buf.docs[:0]
	for _, c := range candidates {
		if i, ok := m.byName[c.Name]; ok {
			idxs = append(idxs, i)
			docs = append(docs, m.finalDocs.Get(i))
		}
	}
	buf.idxs, buf.docs = idxs, docs
	if udoc == nil {
		udoc = features.Extract(unknown.Text, m.opts.Final)
	}
	// The vocabulary rebuild and the gram dots run in storage buf keeps: a
	// VocabBuilder would allocate its counters and tables per query.
	dots, has, uHas := buf.vocab.Score(m.opts.Final, docs, udoc)
	w := m.opts.weights()
	ufreq, uact := normalizedFreq(udoc.Freq), normalizedActivity(unknown)
	nu := normOf(uHas, ufreq != nil, uact != nil, w)
	out := make([]Scored, 0, len(idxs))
	for j, i := range idxs {
		// The index already holds the candidate's dense blocks: activity
		// never depends on the extraction config, frequency only when the
		// two stages' raw counts differ.
		freq, act := m.freqs[i], m.acts[i]
		if !m.sameExtract {
			freq = normalizedFreq(docs[j].Freq)
		}
		score := 0.0 // the cosine of the concatenated weighted vectors (blocks)
		if nv := normOf(has[j], freq != nil, act != nil, w); nu != 0 && nv != 0 {
			dot := dots[j] + w.Freq*w.Freq*denseDot(ufreq, freq) + w.Activity*w.Activity*denseDot(uact, act)
			score = dot / (nu * nv)
		}
		out = append(out, Scored{Name: m.known[i].Name, Score: score})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// Match runs the full §IV-I algorithm for one unknown.
func (m *Matcher) Match(unknown *Subject) MatchResult {
	return m.match(context.Background(), unknown, nil, MatchOptions{})
}

// MatchWith is Match under per-query ranking options (pre-filter mode,
// k, weights). Stage 2 is unaffected: it rescores whatever candidate set
// stage 1 produced.
func (m *Matcher) MatchWith(unknown *Subject, o MatchOptions) MatchResult {
	return m.match(context.Background(), unknown, nil, o)
}

// match is Match with optional per-worker scratch and a context that may
// carry a tracer (per-query "match.rank" / "match.rescore" spans). The
// unknown's document is extracted once; when the two stages share an
// extraction config (the paper's setup) the same document also feeds
// Rescore.
func (m *Matcher) match(ctx context.Context, unknown *Subject, buf *matchBuffers, o MatchOptions) MatchResult {
	res := MatchResult{Unknown: unknown.Name}
	if buf == nil {
		buf = m.getBuf()
		defer m.putBuf(buf)
	}
	udoc := features.Extract(unknown.Text, m.opts.Reduction)
	_, rsp := obs.Start(ctx, "match.rank")
	res.Candidates, _ = m.rankDoc(udoc, unknown, o, buf)
	rsp.AddItems(int64(len(res.Candidates)))
	rsp.End()
	mCandidates.Observe(float64(len(res.Candidates)))
	if len(res.Candidates) == 0 {
		mRejected.Inc()
		return res
	}
	if m.opts.TwoStage {
		rdoc := udoc
		if !m.sameExtract {
			rdoc = nil
		}
		_, ssp := obs.Start(ctx, "match.rescore")
		res.Rescored = m.rescoreDoc(rdoc, unknown, res.Candidates, buf)
		ssp.AddItems(int64(len(res.Rescored)))
		ssp.End()
	} else {
		res.Rescored = res.Candidates
	}
	res.Best = res.Rescored[0]
	res.Accepted = res.Best.Score >= m.opts.Threshold
	if res.Accepted {
		mAccepted.Inc()
	} else {
		mRejected.Inc()
	}
	return res
}

// MatchAll matches every unknown concurrently over a bounded worker pool.
// Results are positionally aligned with the input. The context cancels
// remaining work; cancelled entries carry only the Unknown name.
func (m *Matcher) MatchAll(ctx context.Context, unknowns []Subject) ([]MatchResult, error) {
	actx, aspan := obs.Start(ctx, "match.all")
	aspan.AddItems(int64(len(unknowns)))
	defer aspan.End()
	results := make([]MatchResult, len(unknowns))
	jobs := make(chan int)
	var wg sync.WaitGroup
	workers := m.opts.Workers
	if workers > len(unknowns) {
		workers = len(unknowns)
	}
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			wctx, wsp := obs.Start(actx, "match.worker")
			wsp.SetWorker(w)
			defer wsp.End()
			// Each worker owns one scratch buffer for the whole run:
			// score accumulators and the top-k heap are sized once and
			// reused across every query the worker picks up.
			var buf matchBuffers
			for i := range jobs {
				results[i] = m.match(wctx, &unknowns[i], &buf, MatchOptions{})
				wsp.AddItems(1)
			}
		}()
	}
	var err error
feed:
	for i := range unknowns {
		select {
		case jobs <- i:
		case <-ctx.Done():
			err = ctx.Err()
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if err != nil {
		for i := range results {
			if results[i].Unknown == "" {
				results[i].Unknown = unknowns[i].Name
			}
		}
	}
	return results, err
}
