package attribution

import (
	"context"
	"fmt"
	"math"
	"runtime"
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
	// Prefilter selects the default stage-1 candidate pre-filter and its
	// knobs. The zero value resolves to the exact scan; per-query
	// MatchOptions can override the mode. See internal/prefilter.
	Prefilter prefilter.Params
	// Incremental retains the corpus gram counters and each subject's
	// sorted reduction-config document after the build, enabling State()
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

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = DefaultK
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	o.Prefilter = o.Prefilter.WithDefaults()
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
	opts  Options
	known []Subject

	vocab *features.Vocabulary
	// Inverted index over gram features: for each feature index, the list
	// of (known subject, normalised value) postings. Scoring an unknown
	// touches only postings of features the unknown actually has.
	postings map[uint32][]posting
	// mask records per-subject block presence (maskGrams/maskFreq/maskAct
	// bits): the subject-side norm depends only on which blocks exist.
	mask []uint8
	// freqs and acts are the dense normalised frequency and activity
	// blocks (nil entries when absent).
	freqs [][]float64
	acts  [][]float64
	// maxContrib holds each gram feature's largest posting value — the
	// per-term contribution caps the pruned pre-filter builds score upper
	// bounds from. Built shard-by-shard alongside the postings and merged.
	maxContrib *prefilter.MaxContrib
	// fwdIdx/fwdVal are the forward gram index: each subject's sorted
	// feature ids and the same float32 values its postings carry. The
	// pre-filtered paths score one subject at a time with an id-ordered
	// merge over these lists, reproducing the posting sweep's float32
	// accumulation bit for bit.
	fwdIdx [][]uint32
	fwdVal [][]float32
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
	// a candidate list are ever materialised.
	finalDocs *features.DocCache
	// sameExtract records that the reduction and final configs produce
	// identical raw extractions (they differ only in vocabulary budgets in
	// the paper's setup), letting Match share one unknown-document
	// extraction across both stages.
	sameExtract bool
	// stats and docs are retained only under Options.Incremental: the
	// corpus gram counters the vocabulary was built from, and each known
	// subject's sorted reduction-config document (aligned with known).
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
	// indices and cached documents, the per-query candidate vocabulary with
	// its build buffers, and the gram vectors of the unknown and of the
	// candidate being scored. Nothing a rescore returns aliases any of it.
	idxs       []int
	docs       []*features.SortedDoc
	vocab      features.CandidateVocab
	uvec, cvec sparse.Vector
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

type posting struct {
	subject int
	value   float32
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
func NewMatcherContext(ctx context.Context, known []Subject, opts Options) (*Matcher, error) {
	opts = opts.withDefaults()
	if err := validateOptions(opts); err != nil {
		return nil, err
	}

	// Pass 1: corpus statistics → vocabulary. Each worker extracts a
	// contiguous chunk of subjects into a private builder; the builders
	// merge in shard order. Corpus counters are plain sums and the top-N
	// cut breaks frequency ties by gram id, so the merged vocabulary is
	// bit-identical to a sequential build for any worker count. Docs are
	// dropped as soon as they are folded in — keeping every doc alive
	// would cost ~1 MB per subject — unless Incremental retains their
	// sorted form for Fold/State.
	shards := shardCount(opts.Workers, len(known))
	vctx, vspan := obs.Start(ctx, "matcher.vocab")
	vspan.AddItems(int64(len(known)))
	builders := make([]*features.VocabBuilder, shards)
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
			d := features.Extract(known[i].Text, opts.Reduction)
			if docs != nil {
				sd := d.Sorted()
				docs[i] = sd
				vb.AddSorted(sd)
			} else {
				vb.Add(d)
			}
		}
		builders[s] = vb
	})
	vb := builders[0]
	for _, o := range builders[1:] {
		vb.Merge(o)
	}
	vspan.End()
	var stats *features.VocabBuilder
	if opts.Incremental {
		stats = vb
	}
	return newMatcherFromDocs(ctx, known, docs, stats, vb.Build(), opts)
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

// newMatcherFromDocs runs the index pass over a frozen vocabulary. docs,
// when non-nil, supplies each subject's pre-sorted reduction document
// (the incremental path — Fold and loads from a snapshot reuse cached
// extractions); when nil every subject is re-extracted from its text. The
// per-entry vectorizer arithmetic is identical either way, so the two
// paths assemble bit-identical indexes. opts must already be defaulted
// and validated; stats and docs are retained on the matcher only under
// opts.Incremental.
func newMatcherFromDocs(ctx context.Context, known []Subject, docs []*features.SortedDoc, stats *features.VocabBuilder, vocab *features.Vocabulary, opts Options) (*Matcher, error) {
	m := &Matcher{opts: opts, known: known, vocab: vocab}
	if opts.Incremental {
		m.stats = stats
		m.docs = docs
	}
	shards := shardCount(opts.Workers, len(known))

	// Pass 2: re-extract, build blocks, and assemble per-shard posting
	// lists in one parallel sweep over the same contiguous chunks. Each
	// shard's postings are subject-ascending within its range, so
	// concatenating the shards in order reproduces exactly the
	// subject-ascending posting lists of a serial build — the order
	// stage-1 accumulates float32 dot products in. The same sweep fills
	// the pre-filter structures: per-feature max contributions (merged
	// across shards; max is order-independent), the forward gram index,
	// and the block-presence masks.
	m.mask = make([]uint8, len(known))
	m.freqs = make([][]float64, len(known))
	m.acts = make([][]float64, len(known))
	m.fwdIdx = make([][]uint32, len(known))
	m.fwdVal = make([][]float32, len(known))
	gramDims := int(m.vocab.FreqOffset())
	ictx, ispan := obs.Start(ctx, "matcher.index")
	ispan.AddItems(int64(len(known)))
	shardPostings := make([]map[uint32][]posting, shards)
	shardMax := make([]*prefilter.MaxContrib, shards)
	parallelChunks(shards, len(known), func(s, lo, hi int) {
		_, ss := obs.Start(ictx, "matcher.index.shard")
		ss.SetWorker(s)
		ss.AddItems(int64(hi - lo))
		defer ss.End()
		local := make(map[uint32][]posting)
		mc := prefilter.NewMaxContrib(gramDims)
		for i := lo; i < hi; i++ {
			var b blocks
			if docs != nil {
				b = buildBlocksFromSortedVocab(docs[i], &known[i], m.vocab)
			} else {
				b = buildBlocks(&known[i], m.vocab, opts.Reduction)
			}
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
			for k, idx := range b.grams.Idx {
				v := float32(b.grams.Val[k])
				vals[k] = v
				mc.Note(idx, v)
				local[idx] = append(local[idx], posting{subject: i, value: v})
			}
			m.fwdIdx[i] = b.grams.Idx
			m.fwdVal[i] = vals
		}
		shardPostings[s] = local
		shardMax[s] = mc
	})
	m.postings = make(map[uint32][]posting)
	for _, local := range shardPostings {
		for idx, ps := range local {
			m.postings[idx] = append(m.postings[idx], ps...)
		}
	}
	m.maxContrib = shardMax[0]
	for _, mc := range shardMax[1:] {
		m.maxContrib.Merge(mc)
	}
	m.lshIdx = make(map[prefilter.LSHParams]*prefilter.LSH)
	ispan.End()
	mKnown.Set(float64(len(known)))
	mVocabSize.Set(float64(m.vocab.NumWordGrams() + m.vocab.NumCharGrams()))
	mPostings.Set(float64(len(m.postings)))

	// Stage-2 support structures, hoisted out of Rescore: the name index
	// (previously rebuilt on every call) and the lazy Final-config doc
	// cache (previously re-extracted on every call).
	m.byName = make(map[string]int, len(known))
	texts := make([]string, len(known))
	for i := range known {
		m.byName[known[i].Name] = i
		texts[i] = known[i].Text
	}
	m.finalDocs = features.NewDocCache(opts.Final, texts)
	m.sameExtract = opts.Reduction.SameExtraction(opts.Final)
	return m, nil
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

// Rank runs stage 1 under the matcher's configured weights and default
// pre-filter mode.
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
// candidate pre-filter did alongside the top-k.
func (m *Matcher) RankDetailed(unknown *Subject, o MatchOptions) ([]Scored, prefilter.Stats) {
	doc := features.Extract(unknown.Text, m.opts.Reduction)
	return m.rankDoc(doc, unknown, o, nil)
}

// rankDoc ranks an already-extracted reduction-config document, with
// optional per-worker scratch buffers (drawn from the matcher's pool when
// nil). It resolves the per-query options against the matcher's defaults
// and dispatches to the selected pre-filter path; see rank.go.
func (m *Matcher) rankDoc(doc *features.Doc, unknown *Subject, o MatchOptions, buf *matchBuffers) ([]Scored, prefilter.Stats) {
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
	ub := buildBlocksFromDoc(doc, unknown, m.vocab)
	uNorm := ub.norm(w)
	mode := o.Mode
	if mode == prefilter.ModeDefault {
		mode = m.opts.Prefilter.Mode
	}
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
		out, st = m.rankPruned(&ub, k, w, uNorm, buf, o.prunedParams(&m.opts.Prefilter))
	case prefilter.ModeLSH:
		out, st = m.rankLSH(&ub, k, w, uNorm, buf, o.lshParams(&m.opts.Prefilter))
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

// normOf is blocks.norm computed from block presence alone (each block is
// unit-normalised, so only presence matters).
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

// rescoreDoc is Rescore with an optional pre-extracted unknown document
// (valid only when the reduction and final configs share extraction —
// Match checks m.sameExtract before passing one) on the caller's scratch.
func (m *Matcher) rescoreDoc(udoc *features.Doc, unknown *Subject, candidates []Scored, buf *matchBuffers) []Scored {
	mRescoreTotal.Inc()
	idxs, docs := buf.idxs[:0], buf.docs[:0]
	for _, c := range candidates {
		if i, ok := m.byName[c.Name]; ok {
			idxs = append(idxs, i)
			docs = append(docs, m.finalDocs.Get(i))
		}
	}
	buf.idxs, buf.docs = idxs, docs
	// The per-query vocabulary rebuild runs over id-sorted gram lists (the
	// cache stores candidates pre-flattened); the map-based VocabBuilder
	// path costs more than everything else in Rescore combined.
	vocab := &buf.vocab
	vocab.Reset(m.opts.Final, docs)

	w := m.opts.weights()
	if udoc == nil {
		udoc = features.Extract(unknown.Text, m.opts.Final)
	}
	ub := buildBlocksFromSorted(udoc.Sorted(), unknown, vocab, &buf.uvec)
	out := make([]Scored, 0, len(idxs))
	for j, i := range idxs {
		s := &m.known[i]
		cb := buildBlocksFromSorted(docs[j], s, vocab, &buf.cvec)
		out = append(out, Scored{Name: s.Name, Score: similarity(&ub, &cb, w)})
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
