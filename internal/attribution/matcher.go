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
	// Final is the stage-2 feature configuration (Table II right). Both
	// stages read one extraction, so Final may differ from Reduction only in
	// its vocabulary budgets (MaxWordGrams, MaxCharGrams); any other
	// difference is refused.
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
	// Incremental retains the corpus gram counters after the build, enabling
	// State() (persistence) and Fold (delta updates without a full rebuild).
	// Every matcher keeps its numbered documents; the counters are what
	// Incremental adds. The built index is bit-identical either way.
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
	// accumulation bit for bit. The index pass builds them for the
	// inversion and finish releases them, so a serving matcher holds each
	// posting once; the first pruned or LSH query re-derives them from the
	// arena (forward, fwdOnce).
	fwdOnce sync.Once
	fwdIdx  [][]uint32
	fwdVal  [][]float32
	// termCaps holds each gram feature's largest posting value — the
	// per-term contribution caps the pruned mode builds score upper bounds
	// from — read off the posting arena by the first pruned query (capsOnce).
	capsOnce sync.Once
	termCaps []float32
	// lsh is the banded-MinHash index the LSH mode draws candidates from,
	// built by the first LSH query (lshOnce) the way termCaps is.
	lshOnce sync.Once
	lsh     *prefilter.LSH
	// bufPool backs the bufferless entry points: the serve path calls Rank
	// per request, and without pooling every request would allocate two
	// known-set-sized accumulators.
	bufPool sync.Pool
	// byName maps a known subject's name to its index (last wins on
	// duplicates, matching historical Rescore behaviour).
	byName map[string]int
	// docs holds each known subject's document (aligned with known), the one
	// extraction both stages read, numbered by the vocabulary's dictionary
	// and packed. Every generation's documents are numbered before it serves
	// — by the index pass of a build, as read by a load, renumbered by a
	// Fold — so stage 2 reads them with no numbering of its own. stats, the
	// corpus gram counters the vocabulary was cut from, is retained only
	// under Options.Incremental. Together they let Fold subtract a subject's old
	// counts, add its new ones, and re-run only the index pass — and let
	// State() persist enough to do the same after a restart.
	docs  []*features.NumberedDoc
	stats *features.VocabBuilder
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
	// indices and documents, a one-shot unknown's numbered document, and the
	// per-query candidate vocabulary with its postings and build buffers.
	// Nothing a rescore returns aliases any of it.
	idxs  []int
	docs  []*features.NumberedDoc
	unum  features.NumberedDoc
	vocab features.CandidateVocab

	// prepare's vectorizer scratch: uvec is built and normalised here, then
	// copied out into the Query; vs holds the entries numbering and
	// vectorizing pass through and the sort's second buffer.
	uvec sparse.Vector
	vs   features.Scratch
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

	fresh := make([]*features.PackedDoc, len(known))
	vb, err := countCorpus(ctx, known, opts.Reduction, opts.Workers, fresh)
	if err != nil {
		return nil, fmt.Errorf("attribution: corpus counters: %w", err)
	}
	return foldTail(ctx, known, nil, fresh, vb, given)
}

// countCorpus is pass 1, corpus statistics: each worker extracts a
// contiguous chunk of subjects under cfg into a private builder and settles
// it — sorted-run merges, no hash map — and the builders merge in shard
// order. Corpus counters are plain sums and the cut breaks frequency ties by
// gram id, so the merged vocabulary is bit-identical to a sequential build
// for any worker count. A builder lets go of a document once its batch is
// merged in; docs[i] keeps subject i's extraction for the index pass, which
// lets each go once it is numbered. The pass is a "matcher.vocab" span with
// one shard child per worker chunk.
func countCorpus(ctx context.Context, known []Subject, cfg features.Config, workers int, docs []*features.PackedDoc) (*features.VocabBuilder, error) {
	shards := shardCount(workers, len(known))
	vctx, vspan := obs.Start(ctx, "matcher.vocab")
	defer vspan.End()
	vspan.AddItems(int64(len(known)))
	builders := make([]*features.VocabBuilder, shards)
	shardErr := make([]error, shards)
	parallelChunks(shards, len(known), func(s, lo, hi int) {
		_, ss := obs.Start(vctx, "matcher.vocab.shard")
		ss.SetWorker(s)
		ss.AddItems(int64(hi - lo))
		defer ss.End()
		vb := features.NewVocabBuilder(cfg)
		for i := lo; i < hi; i++ {
			docs[i] = features.Extract(known[i].Text, cfg)
			vb.Add(docs[i])
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
	return vb, err
}

// validateOptions checks the feature configurations of already-defaulted
// options. Both stages read one extraction, so the final config may differ
// from the reduction config only in its vocabulary budgets, whether or not
// stage 2 runs.
func validateOptions(opts Options) error {
	if err := opts.Reduction.Validate(); err != nil {
		return fmt.Errorf("attribution: reduction config: %w", err)
	}
	if !opts.Reduction.SameExtraction(opts.Final) {
		return fmt.Errorf("attribution: final config extracts differently from the reduction config: only MaxWordGrams and MaxCharGrams may differ")
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
// in foldTail, which ends here. docs[i], when docs is non-nil and docs[i]
// is, is subject i's reduction document numbered by vocab's dictionary (a
// load has every one, a Fold those it renumbered); any other is numbered
// here, on the workers, from the extraction fresh[i] (a build's pass 1, a
// Fold's changed subjects). The vectorizer reads only numbers, so the paths
// assemble bit-identical indexes. given must already have been validated in
// its resolved form; stats is retained on the matcher only under
// Incremental.
func newMatcherFromDocs(ctx context.Context, known []Subject, docs []*features.NumberedDoc, fresh []*features.PackedDoc, stats *features.VocabBuilder, vocab *features.Vocabulary, given Options) (*Matcher, error) {
	opts := given.WithDefaults()
	if docs == nil {
		docs = make([]*features.NumberedDoc, len(known))
	}
	m := &Matcher{given: given, opts: opts, known: known, vocab: vocab, docs: docs}
	if opts.Incremental {
		m.stats = stats
	}
	shards := shardCount(opts.Workers, len(known))
	dict := vocab.Dictionary()

	// Pass 2: number what is not numbered yet and build blocks in one
	// parallel sweep over the same contiguous chunks. A shard writes only its
	// own subjects' slots — documents, forward gram index, dense blocks,
	// block-presence masks — so any worker count builds the serial result.
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
		var (
			scratch features.Scratch
			vec     sparse.Vector
		)
		for i := lo; i < hi; i++ {
			if docs[i] == nil {
				// Numbered, the extraction is garbage: let it go now.
				docs[i] = new(features.NumberedDoc)
				dict.NumberInto(docs[i], fresh[i], &scratch)
				fresh[i] = nil
			}
			d := docs[i]
			m.vocab.VectorizeGramsInto(&vec, &scratch, d)
			b := blocksOf(vec, &d.Freq, &known[i])
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
			// The vector is the shard's scratch: the forward list is a copy
			// of its selected features, at their count.
			m.fwdIdx[i] = slices.Clone(b.grams.Idx)
			m.fwdVal[i] = vals
		}
	})
	err := m.finish()
	ispan.End()
	return m, err
}

// finish ends the index pass: it inverts the forward lists into the posting
// arena, releases the lists, and builds the name index stage 2 looks
// candidates up by.
func (m *Matcher) finish() error {
	var err error
	m.postOff, m.postSubj, m.postVal, err = invertForward(m.fwdIdx, m.fwdVal, int(m.vocab.FreqOffset()), m.opts.Workers)
	m.fwdIdx, m.fwdVal = nil, nil
	if err != nil {
		return fmt.Errorf("attribution: posting inversion: %w", err)
	}
	m.byName = make(map[string]int, len(m.known))
	for i := range m.known {
		m.byName[m.known[i].Name] = i
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
// val, and within a feature the subjects ascend — the order stage 1
// accumulates float32 dot products in.
//
// The postings are counted per feature, then placed one tile at a time. A
// tile is a run of consecutive feature ids holding about max(2^15, 64·n)
// postings for n subjects, filled by walking every subject's forward list
// on from where the previous tile stopped: the tile's write cursors and the
// arena range it fills stay in cache, where placing one subject at a time
// scatters writes over the whole arena. The 64·n floor keeps the n cursor
// steps a tile costs below one in 64 postings. The workers fill disjoint
// runs of tiles, so the arena is the same for any count. The walk needs
// every forward list strictly ascending, so a repeated or descending id is
// an error, as are a feature id outside the vocabulary, lists of unequal
// length and an arena past 32-bit offsets.
func invertForward(fwdIdx [][]uint32, fwdVal [][]float32, dims, workers int) (off []uint32, subj []int32, val []float32, err error) {
	off = make([]uint32, dims+1)
	total := 0
	for i, ids := range fwdIdx {
		if len(ids) != len(fwdVal[i]) {
			return nil, nil, nil, fmt.Errorf("subject %d forward lists disagree (%d ids, %d values)", i, len(ids), len(fwdVal[i]))
		}
		for k, g := range ids {
			if int(g) >= dims {
				return nil, nil, nil, fmt.Errorf("gram id %d outside the %d-gram vocabulary", g, dims)
			}
			if k > 0 && g <= ids[k-1] {
				return nil, nil, nil, fmt.Errorf("subject %d forward ids do not ascend (%d after %d)", i, g, ids[k-1])
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

	// Tile t covers the feature ids tiles[t]..tiles[t+1].
	per := max(1<<15, 64*len(fwdIdx))
	tiles := []int{0}
	for g := 1; g < dims; g++ {
		if int(off[g]-off[tiles[len(tiles)-1]]) >= per {
			tiles = append(tiles, g)
		}
	}
	tiles = append(tiles, dims)
	n := len(tiles) - 1
	parallelChunks(shardCount(workers, n), n, func(_, lo, hi int) {
		first := uint32(tiles[lo])
		next := slices.Clone(off[first:tiles[hi]]) // next[g-first]: where feature g's next posting goes
		cur := make([]int, len(fwdIdx))            // cur[i]: subject i's first forward entry not yet placed
		for i, ids := range fwdIdx {
			cur[i], _ = slices.BinarySearch(ids, first)
		}
		for t := lo; t < hi; t++ {
			end := uint32(tiles[t+1])
			for i, ids := range fwdIdx {
				vals := fwdVal[i]
				k := cur[i]
				for ; k < len(ids) && ids[k] < end; k++ {
					p := next[ids[k]-first]
					subj[p], val[p] = int32(i), vals[k]
					next[ids[k]-first] = p + 1
				}
				cur[i] = k
			}
		}
	})
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

// RankDetailed runs stage 1 under per-query options and reports what the
// scan did (mode, subjects scored and skipped) alongside the top-k.
func (m *Matcher) RankDetailed(unknown *Subject, o MatchOptions) ([]Scored, prefilter.Stats) {
	buf := m.getBuf()
	defer m.putBuf(buf)
	return m.prepare(unknown, buf).rank(o, buf)
}

// Query is an unknown prepared against one matcher: its reduction-config
// document, numbered by the matcher's dictionary, and its normalised stage-1
// blocks. Every ranking and match starts from one, so a caller that asks
// about the same unknown again — under another weighting, k or mode, or in
// stage 2 after stage 1 — pays the extraction, the numbering and the
// vectorization once. (A one-shot Matcher.Rescore prepares none: stage 2
// reads no stage-1 vector.) The blocks do not depend on the weights; only
// the norm the scan divides by does, and that is taken per query. A Query
// is immutable after Prepare and safe for concurrent use. Its gram vector
// and numbers are in the preparing matcher's vocabulary and dictionary, so
// it answers against that matcher only.
type Query struct {
	m       *Matcher
	subject *Subject
	doc     features.NumberedDoc
	ub      blocks
}

// Prepare extracts, numbers and vectorizes unknown for m. The Query keeps
// unknown, which must not change while the Query is in use.
func (m *Matcher) Prepare(unknown *Subject) *Query {
	buf := m.getBuf()
	defer m.putBuf(buf)
	return m.prepare(unknown, buf)
}

// PrepareCarried is Prepare with the extraction carried between calls. Given
// x — unknown's extraction as an earlier PrepareCarried returned it, on m or
// on any matcher whose Reduction config is SameExtraction as m's — it
// numbers and vectorizes x's grams and extracts nothing; given nil, it
// extracts unknown and returns the extraction packed for the next call.
// Either way the Query is bit-identical to Prepare's. The extraction names
// grams by id and refers to no matcher, so it stays valid across a Fold,
// which renumbers every gram, and keeps no matcher alive.
func (m *Matcher) PrepareCarried(unknown *Subject, x *features.PackedDoc) (*Query, *features.PackedDoc) {
	if x == nil {
		x = features.Extract(unknown.Text, m.opts.Reduction)
	}
	buf := m.getBuf()
	defer m.putBuf(buf)
	return m.prepareDoc(unknown, x, buf), x
}

// prepare is Prepare on the caller's scratch.
func (m *Matcher) prepare(unknown *Subject, buf *matchBuffers) *Query {
	return m.prepareDoc(unknown, features.Extract(unknown.Text, m.opts.Reduction), buf)
}

// prepareDoc prepares unknown from its extraction x on the caller's
// scratch: the vector is built in buf and copied out at its final length, so
// the Query holds no slack and buf keeps its storage for the next one. The
// document is numbered once, by the dictionary both stage 1's feature table
// and stage 2 read.
func (m *Matcher) prepareDoc(unknown *Subject, x *features.PackedDoc, buf *matchBuffers) *Query {
	q := &Query{m: m, subject: unknown}
	m.vocab.Dictionary().NumberInto(&q.doc, x, &buf.vs)
	m.vocab.VectorizeGramsInto(&buf.uvec, &buf.vs, &q.doc)
	q.ub = blocksOf(buf.uvec, &q.doc.Freq, unknown)
	q.ub.grams = q.ub.grams.Clone()
	return q
}

// Rank is RankDetailed on the prepared unknown.
func (q *Query) Rank(o MatchOptions) ([]Scored, prefilter.Stats) {
	buf := q.m.getBuf()
	defer q.m.putBuf(buf)
	return q.rank(o, buf)
}

// rank resolves the per-query options against the matcher's defaults and
// dispatches to the scan the query names (see rank.go), on the caller's
// scratch.
func (q *Query) rank(o MatchOptions, buf *matchBuffers) ([]Scored, prefilter.Stats) {
	m := q.m
	mRankTotal.Inc()
	k := o.K
	if k <= 0 {
		k = m.opts.K
	}
	w := m.opts.weights()
	if o.Weights != nil {
		w = *o.Weights
	}
	ub := &q.ub
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
		return out, st
	}
	if mode == prefilter.ModeLSH && ub.grams.Len() == 0 {
		// Nothing to hash: stay lossless rather than return nothing.
		mode = prefilter.ModeExact
	}
	switch mode {
	case prefilter.ModePruned:
		return m.rankPruned(ub, k, w, uNorm, buf)
	case prefilter.ModeLSH:
		return m.rankLSH(ub, k, w, uNorm, buf)
	}
	return m.rankExact(ub, k, w, uNorm, buf)
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
// by cosine under the matcher's weights. Candidate documents are the ones
// the matcher holds, numbered once per generation, so a candidate costs no
// extraction and no numbering at query time.
func (m *Matcher) Rescore(unknown *Subject, candidates []Scored) []Scored {
	buf := m.getBuf()
	defer m.putBuf(buf)
	return m.rescoreSubject(unknown, candidates, buf)
}

// rescoreSubject is Rescore on the caller's scratch. Stage 2 reads nothing
// of stage 1's gram vector, so a one-shot rescore extracts the unknown,
// numbers it in buf by the vocabulary's dictionary and prepares no Query.
func (m *Matcher) rescoreSubject(unknown *Subject, candidates []Scored, buf *matchBuffers) []Scored {
	udoc := features.Extract(unknown.Text, m.opts.Reduction)
	m.vocab.Dictionary().NumberInto(&buf.unum, udoc, &buf.vs)
	return m.rescoreDoc(&buf.unum, normalizedFreq(udoc.Freq), normalizedActivity(unknown), candidates, buf)
}

// Rescore is Matcher.Rescore on the prepared unknown.
func (q *Query) Rescore(candidates []Scored) []Scored {
	buf := q.m.getBuf()
	defer q.m.putBuf(buf)
	return q.rescore(candidates, buf)
}

// rescore is Rescore on the caller's scratch. The stages share one
// extraction, so the prepared document, its numbers and its dense blocks are
// stage 2's too.
func (q *Query) rescore(candidates []Scored, buf *matchBuffers) []Scored {
	return q.m.rescoreDoc(&q.doc, q.ub.freq, q.ub.act, candidates, buf)
}

// rescoreDoc scores the candidates against the unknown's numbered document
// u and its normalised frequency and activity blocks.
func (m *Matcher) rescoreDoc(u *features.NumberedDoc, ufreq, uact []float64, candidates []Scored, buf *matchBuffers) []Scored {
	mRescoreTotal.Inc()
	idxs, docs := buf.idxs[:0], buf.docs[:0]
	for _, c := range candidates {
		if i, ok := m.byName[c.Name]; ok {
			idxs = append(idxs, i)
			docs = append(docs, m.docs[i])
		}
	}
	buf.idxs, buf.docs = idxs, docs
	// The vocabulary rebuild and the gram dots run in storage buf keeps: a
	// VocabBuilder would allocate its counters and tables per query.
	dots, has, uHas := buf.vocab.Score(m.opts.Final, docs, u)
	w := m.opts.weights()
	nu := normOf(uHas, ufreq != nil, uact != nil, w)
	out := make([]Scored, 0, len(idxs))
	for j, i := range idxs {
		// The index already holds the candidate's dense blocks.
		freq, act := m.freqs[i], m.acts[i]
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
	return m.MatchWith(unknown, MatchOptions{})
}

// MatchWith is Match under per-query ranking options (pre-filter mode,
// k, weights). Stage 2 is unaffected: it rescores whatever candidate set
// stage 1 produced.
func (m *Matcher) MatchWith(unknown *Subject, o MatchOptions) MatchResult {
	buf := m.getBuf()
	defer m.putBuf(buf)
	return m.prepare(unknown, buf).match(context.Background(), buf, o)
}

// Match is MatchWith on the prepared unknown.
func (q *Query) Match(o MatchOptions) MatchResult {
	buf := q.m.getBuf()
	defer q.m.putBuf(buf)
	return q.match(context.Background(), buf, o)
}

// match is Match on the caller's scratch under a context that may carry a
// tracer (per-query "match.rank" / "match.rescore" spans). Both stages
// start from the one prepared unknown.
func (q *Query) match(ctx context.Context, buf *matchBuffers, o MatchOptions) MatchResult {
	m := q.m
	res := MatchResult{Unknown: q.subject.Name}
	_, rsp := obs.Start(ctx, "match.rank")
	res.Candidates, _ = q.rank(o, buf)
	rsp.AddItems(int64(len(res.Candidates)))
	rsp.End()
	mCandidates.Observe(float64(len(res.Candidates)))
	if len(res.Candidates) == 0 {
		mRejected.Inc()
		return res
	}
	if m.opts.TwoStage {
		_, ssp := obs.Start(ctx, "match.rescore")
		res.Rescored = q.rescore(res.Candidates, buf)
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
				results[i] = m.prepare(&unknowns[i], &buf).match(wctx, &buf, MatchOptions{})
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
