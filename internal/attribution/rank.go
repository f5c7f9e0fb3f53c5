package attribution

import (
	"darklight/internal/prefilter"
)

// Stage-1 ranking paths. Query.rank (matcher.go) resolves per-query options
// and dispatches here: to rankExact, unless a library caller's
// MatchOptions.Mode (the benchmark's traced rows) names one of the other
// two — no option, flag or request field does. Each of the two runs at one
// fixed operating point:
//
//   - rankExact: the original full scan — accumulate every subject's gram
//     dot through the inverted index (one range of the posting arena per
//     query term), then normalise all N scores.
//   - rankPruned: lossless WAND-style pruning. Walk only the
//     highest-impact query terms' posting lists, bound every subject's
//     score from the partial sums plus the unwalked tail, and exact-score
//     subjects in bound order until the best remaining bound cannot beat
//     the running k-th score. Bit-identical to rankExact (rank_test.go
//     pins ids, order, and score bits across random worlds).
//   - rankLSH: approximate banded MinHash. Exact-score only subjects
//     sharing a band bucket with the query; recall is measured by the
//     benchmark's traced run, not assumed.
//
// All three paths score a subject with identical arithmetic (scoreOne
// reproduces the posting sweep's float32 accumulation order), so the modes
// differ only in which subjects get scored.

// MatchOptions select per-query ranking behaviour. The zero value
// reproduces the matcher's configured defaults exactly.
type MatchOptions struct {
	// K overrides the candidate-set size; 0 means the matcher's K.
	K int
	// Weights override the matcher's block weights when non-nil.
	Weights *Weights
	// Mode selects the stage-1 pre-filter for this query; ModeDefault is
	// the exact scan.
	Mode prefilter.Mode
}

// The pruned mode's bound arithmetic. boundMul covers the float64
// multiply/divide roundings of the bound itself; f32ulp scales with the
// query-term count to cover the worst-case drift of the exact scan's
// float32 gram accumulation ((terms-1) rounding steps, each at most 2^-24
// of a sum bounded by 1 — 2^-23 per term is double that). pruneSlack is an
// extra additive margin on every bound, deliberately generous relative to
// float32 accumulation error (scores are at most ~1): losslessness must
// never hinge on a tight epsilon. pruneTailShare is the fraction of total
// query impact left unwalked after the posting sweep and folded into every
// bound instead. The last two trade pruning power for bound tightness,
// never correctness: the top-k is bit-identical to the exact scan's.
const (
	boundMul       = 1 + 1.0/(1<<20)
	f32ulp         = 1.0 / (1 << 23)
	pruneSlack     = 1e-3
	pruneTailShare = 0.05
)

// rankExact is the full O(N) scan, unchanged from the pre-prefilter
// matcher: it remains the executable spec the pruned mode is pinned
// against.
func (m *Matcher) rankExact(ub *blocks, k int, w Weights, uNorm float64, buf *matchBuffers) ([]Scored, prefilter.Stats) {
	scores, tdots := buf.scoreBufs(len(m.known))
	// Gram block via the inverted index. A query term of float32 weight zero
	// (IDF 0: a gram every known subject has, so the longest lists) is
	// skipped: its products are all +0, which leave every sum's bits as they
	// were — scoreOne, which adds them, still agrees.
	for j, idx := range ub.grams.Idx {
		v := float32(ub.grams.Val[j])
		if v == 0 {
			continue
		}
		lo, hi := m.postOff[idx], m.postOff[idx+1]
		vals := m.postVal[lo:hi]
		for p, i := range m.postSubj[lo:hi] {
			tdots[i] += vals[p] * v
		}
	}
	// Dense blocks + normalisation.
	wf2 := w.Freq * w.Freq
	wa2 := w.Activity * w.Activity
	for i := range m.known {
		dot := float64(tdots[i])
		if wf2 > 0 {
			dot += wf2 * denseDot(ub.freq, m.freqs[i])
		}
		if wa2 > 0 {
			dot += wa2 * denseDot(ub.act, m.acts[i])
		}
		kn := maskNorm(m.mask[i], w)
		if kn == 0 {
			continue
		}
		scores[i] = dot / (uNorm * kn)
	}
	st := prefilter.Stats{Mode: prefilter.ModeExact, Candidates: len(m.known), Scored: len(m.known)}
	out, ev := topKScores(m.known, scores, k, &buf.heap)
	st.Evictions = ev
	return out, st
}

// scoreOne exactly scores one known subject, bit-identical to what the
// full scan computes for it: the forward lists and the query vector are
// both id-sorted, so the float32 merge below applies the same additions in
// the same order as the posting sweep (which visits query terms in
// ascending id and adds subject-side float32 values), and the dense tail
// repeats the scan's float64 arithmetic verbatim.
func (m *Matcher) scoreOne(i int, ub *blocks, qv32 []float32, wf2, wa2 float64, w Weights, uNorm float64) float64 {
	var t float32
	qi := ub.grams.Idx
	fwdIdx, fwdVal := m.forward()
	si, sv := fwdIdx[i], fwdVal[i]
	a, b := 0, 0
	for a < len(qi) && b < len(si) {
		switch {
		case qi[a] == si[b]:
			t += sv[b] * qv32[a]
			a++
			b++
		case qi[a] < si[b]:
			a++
		default:
			b++
		}
	}
	dot := float64(t)
	if wf2 > 0 {
		dot += wf2 * denseDot(ub.freq, m.freqs[i])
	}
	if wa2 > 0 {
		dot += wa2 * denseDot(ub.act, m.acts[i])
	}
	kn := maskNorm(m.mask[i], w)
	if kn == 0 {
		return 0
	}
	return dot / (uNorm * kn)
}

// rankPruned is the lossless pre-filtered scan.
//
// Why it is safe to skip a subject: its returned score can only be
// (partial gram sum) + (unwalked tail) + (dense caps), scaled by the same
// norms the exact path divides by, plus margins covering every float32-
// vs-float64 discrepancy — so UB >= exact score, always. Subjects the
// walk touched get individual bounds and are popped best-bound first;
// subjects the walk never touched all share one bound per presence mask
// (their partial sum is zero, so only the tail and the dense caps
// remain), which is checked once per mask class instead of building and
// heapifying N entries. The scan stops once the best remaining bound is
// strictly below the current k-th best score; strictness matters because
// an equal score could still win its place by the name tie-break, so ties
// keep scoring. Every skipped subject therefore scores strictly below the
// returned k-th entry and cannot appear in topKScores' output either.
// The processing order (touched heap first, untouched sweep second) does
// not affect the result: the top-k set is unique under the total
// (score desc, name asc) order, whichever order candidates are offered.
func (m *Matcher) rankPruned(ub *blocks, k int, w Weights, uNorm float64, buf *matchBuffers) ([]Scored, prefilter.Stats) {
	n := len(m.known)
	if k > n {
		k = n
	}
	if k <= 0 {
		return []Scored{}, prefilter.Stats{Mode: prefilter.ModePruned, Pruned: n}
	}
	// Per-term impacts: no subject can gain more than qv_j * max posting
	// value from term j.
	caps := m.maxContrib()
	g := &ub.grams
	qv32 := buf.queryVals(g.Val)
	imps := buf.impactBuf(len(g.Idx))
	total := 0.0
	for j, idx := range g.Idx {
		imps[j] = g.Val[j] * float64(caps[idx])
		total += imps[j]
	}
	buf.order = prefilter.OrderTermsByImpact(imps, buf.order)

	// Walk posting lists heaviest-term first until the unwalked tail is
	// below pruneTailShare of the total impact: the long tail of
	// near-zero-IDF terms costs most of the scan but barely moves any
	// bound. pscore is all-zero between queries (the touched list below is
	// how it gets cleared), so only subjects this walk reaches are ever
	// visited — never all N.
	pscore, touched := buf.pruneBufs(n)
	tail := total
	budget := pruneTailShare * total
	for _, oj := range buf.order {
		if tail <= budget {
			break
		}
		qv := g.Val[oj]
		lo, hi := m.postOff[g.Idx[oj]], m.postOff[g.Idx[oj]+1]
		vals := m.postVal[lo:hi]
		for p, i := range m.postSubj[lo:hi] {
			// Zero contributions (idf-zero grams) are skipped rather than
			// added: every contribution is >= 0, so a touched subject's
			// partial sum is strictly positive — which is what lets the
			// untouched sweep below identify touched subjects by
			// pscore != 0, and keeps the touched list duplicate-free.
			c := qv * float64(vals[p])
			if c == 0 {
				continue
			}
			if pscore[i] == 0 {
				touched = append(touched, i)
			}
			pscore[i] += c
		}
		tail -= imps[oj]
	}
	if tail < 0 {
		tail = 0
	}

	// Per-presence-mask constants: the subject-side norm and the dense
	// caps depend only on which blocks a subject has (8 combinations).
	// tailUB[msk] is the shared bound of every untouched subject with that
	// mask: gram partial 0, so only the tail (for gram-bearing subjects)
	// and the dense caps remain.
	wf2 := w.Freq * w.Freq
	wa2 := w.Activity * w.Activity
	// The real-arithmetic gram dot of two unit vectors is at most 1; the
	// exact scan's float32 version may drift above the real value by at
	// most f32Guard, which therefore rides on every gram bound.
	f32Guard := float64(len(g.Idx)) * f32ulp
	var addC, invKn, tailUB [8]float64
	for msk := range invKn {
		if kn := maskNorm(uint8(msk), w); kn > 0 {
			invKn[msk] = boundMul / (uNorm * kn)
		}
		if ub.freq != nil && uint8(msk)&maskFreq != 0 {
			addC[msk] += wf2
		}
		if ub.act != nil && uint8(msk)&maskAct != 0 {
			addC[msk] += wa2
		}
		gb := 0.0
		if uint8(msk)&maskGrams != 0 {
			gb = tail
			if gb > 1 {
				gb = 1
			}
			gb += f32Guard
		}
		tailUB[msk] = (gb+addC[msk])*invKn[msk] + pruneSlack
	}
	bounds := buf.bounds[:0]
	for _, id := range touched {
		i := int(id)
		msk := m.mask[i]
		gb := pscore[i] + tail
		if gb > 1 {
			gb = 1
		}
		gb += f32Guard
		bounds = append(bounds, prefilter.Bound{UB: (gb+addC[msk])*invKn[msk] + pruneSlack, ID: id})
	}
	buf.bounds = bounds
	bounds.Init()

	topk := buf.heap[:0]
	scored, evictions := 0, 0
	for len(bounds) > 0 {
		if len(topk) == k && bounds[0].UB < topk[0].score {
			break
		}
		b := bounds.Pop()
		i := int(b.ID)
		s := m.scoreOne(i, ub, qv32, wf2, wa2, w, uNorm)
		scored++
		var ev bool
		topk, ev = pushTopK(m.known, topk, k, heapEntry{score: s, index: i})
		if ev {
			evictions++
		}
	}
	buf.bounds = buf.bounds[:0]

	// Untouched sweep: needed only while some mask class's shared bound
	// can still reach the running k-th score (a tail or slack the k-th
	// score has not yet outgrown, or a top-k not yet full). tailUB never
	// changes but the k-th score only rises, so the per-mask check inside
	// the loop prunes the sweep further as it goes. Touched subjects have
	// nonzero pscore and are skipped (they were already offered).
	maxTailUB := 0.0
	for _, ubm := range tailUB {
		if ubm > maxTailUB {
			maxTailUB = ubm
		}
	}
	if len(topk) < k || maxTailUB >= topk[0].score {
		for i := 0; i < n; i++ {
			if pscore[i] != 0 {
				continue
			}
			if len(topk) == k && tailUB[m.mask[i]] < topk[0].score {
				continue
			}
			s := m.scoreOne(i, ub, qv32, wf2, wa2, w, uNorm)
			scored++
			var ev bool
			topk, ev = pushTopK(m.known, topk, k, heapEntry{score: s, index: i})
			if ev {
				evictions++
			}
		}
	}
	buf.heap = topk

	// Restore the pscore invariant (all-zero) by clearing only what this
	// query touched.
	for _, id := range touched {
		pscore[id] = 0
	}
	buf.touched = touched[:0]

	st := prefilter.Stats{Mode: prefilter.ModePruned, Candidates: scored, Scored: scored, Pruned: n - scored, Evictions: evictions}
	return drainTopK(m.known, topk), st
}

// rankLSH scores only the subjects sharing a band bucket with the query's
// gram set. Candidate scores are computed by the same scoreOne as the
// lossless paths, so an LSH result differs from exact only by absence —
// never by a different score for a returned name. Fewer than k results
// (or zero) are possible when few subjects collide with the query.
func (m *Matcher) rankLSH(ub *blocks, k int, w Weights, uNorm float64, buf *matchBuffers) ([]Scored, prefilter.Stats) {
	n := len(m.known)
	if k > n {
		k = n
	}
	if k < 0 {
		k = 0
	}
	l := m.lshIndex()
	// Hash the query's informative gram set — the same MinHash floor the
	// index side applies, so the Jaccard estimate stays symmetric. A query
	// whose grams are ALL weightless (impossible for a unit-norm vector
	// under ~10^8 grams, but query blocks are not re-validated here) falls
	// back to its full set.
	qset := buf.lshq[:0]
	for j, v := range ub.grams.Val {
		if v >= prefilter.MinHashValueFloor {
			qset = append(qset, ub.grams.Idx[j])
		}
	}
	buf.lshq = qset
	if len(qset) == 0 {
		qset = ub.grams.Idx
	}
	buf.cands = l.Candidates(qset, buf.cands)
	qv32 := buf.queryVals(ub.grams.Val)
	wf2 := w.Freq * w.Freq
	wa2 := w.Activity * w.Activity
	topk := buf.heap[:0]
	evictions := 0
	for _, id := range buf.cands {
		i := int(id)
		s := m.scoreOne(i, ub, qv32, wf2, wa2, w, uNorm)
		var ev bool
		topk, ev = pushTopK(m.known, topk, k, heapEntry{score: s, index: i})
		if ev {
			evictions++
		}
	}
	buf.heap = topk
	st := prefilter.Stats{Mode: prefilter.ModeLSH, Candidates: len(buf.cands), Scored: len(buf.cands), Pruned: n - len(buf.cands), Evictions: evictions}
	return drainTopK(m.known, topk), st
}

// maxContrib returns each gram feature's largest posting value, taken in
// one pass over the posting arena by the first pruned query: build, Fold and
// load pay nothing for a mode no request reaches.
func (m *Matcher) maxContrib() []float32 {
	m.capsOnce.Do(func() {
		m.termCaps = make([]float32, len(m.postOff)-1)
		for g := range m.termCaps {
			for _, v := range m.postVal[m.postOff[g]:m.postOff[g+1]] {
				m.termCaps[g] = max(m.termCaps[g], v)
			}
		}
	})
	return m.termCaps
}

// forward returns the forward gram lists, re-derived by the first pruned or
// LSH query (fwdOnce) in one transpose of the posting arena: walking the
// features in ascending id gives each subject its ids ascending, beside the
// very float32 values its postings hold — the lists the index pass built.
// The exact scan never calls it.
func (m *Matcher) forward() ([][]uint32, [][]float32) {
	m.fwdOnce.Do(func() {
		n := len(m.known)
		next := make([]int, n+1) // next[i]: where subject i's next entry goes
		for _, i := range m.postSubj {
			next[i+1]++
		}
		for i := range n {
			next[i+1] += next[i]
		}
		ids, vals := make([]uint32, len(m.postSubj)), make([]float32, len(m.postSubj))
		m.fwdIdx, m.fwdVal = make([][]uint32, n), make([][]float32, n)
		for i := range n {
			m.fwdIdx[i], m.fwdVal[i] = ids[next[i]:next[i+1]:next[i+1]], vals[next[i]:next[i+1]:next[i+1]]
		}
		for g := 0; g+1 < len(m.postOff); g++ {
			for p := m.postOff[g]; p < m.postOff[g+1]; p++ {
				i := m.postSubj[p]
				ids[next[i]], vals[next[i]] = uint32(g), m.postVal[p]
				next[i]++
			}
		}
	})
	return m.fwdIdx, m.fwdVal
}

// lshIndex returns the LSH index, built by the first LSH query (lshOnce).
// It hashes each subject's informative gram set (prefilter.MinHashValueFloor
// applied): corpus-universal grams carry IDF ≈ 0, so hashing them would
// inflate every cross-subject Jaccard — and with it the candidate count —
// without making true matches any likelier to collide.
func (m *Matcher) lshIndex() *prefilter.LSH {
	m.lshOnce.Do(func() {
		fwdIdx, fwdVal := m.forward()
		m.lsh = prefilter.BuildLSH(len(m.known), func(i int) []uint32 {
			return lshInformative(fwdIdx[i], fwdVal[i])
		})
	})
	return m.lsh
}

// lshInformative filters a forward list to the ids whose value clears the
// MinHash floor, returning the input slice unchanged (no copy) when
// nothing is filtered — the common case for subjects with no weightless
// grams.
func lshInformative(ids []uint32, vals []float32) []uint32 {
	drop := 0
	for _, v := range vals {
		if v < prefilter.MinHashValueFloor {
			drop++
		}
	}
	if drop == 0 {
		return ids
	}
	out := make([]uint32, 0, len(ids)-drop)
	for j, v := range vals {
		if v >= prefilter.MinHashValueFloor {
			out = append(out, ids[j])
		}
	}
	return out
}
