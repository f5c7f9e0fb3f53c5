package baselines

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"

	"darklight/internal/attribution"
	"darklight/internal/eval"
	"darklight/internal/features"
	"darklight/internal/sparse"
	"darklight/internal/splitmix"
)

// KoppelConfig tunes the random-subspace method of Koppel, Schler &
// Argamon ("Authorship attribution in the wild", LREC 2011), the second
// baseline of §IV-F.
type KoppelConfig struct {
	// Iterations is the number of random subspaces (paper: 100).
	Iterations int
	// FeatureFraction is the per-iteration feature sample (paper: 0.40).
	FeatureFraction float64
	// Seed drives the subspace choices.
	Seed uint64
	// Features is the underlying feature space; the zero value means the
	// paper's reduction configuration.
	Features features.Config
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
}

// DefaultKoppelConfig returns the published parameters.
func DefaultKoppelConfig() KoppelConfig {
	return KoppelConfig{Iterations: 100, FeatureFraction: 0.40, Seed: 1, Features: features.ReductionConfig()}
}

// Koppel is the random-subspace voting matcher. Each iteration samples 40%
// of the features, finds every unknown's nearest known subject by cosine
// in that subspace, and gives it one vote; a candidate's final score is
// its vote share over all iterations.
//
// The method is inherently ~Iterations× more expensive than a single
// cosine pass — the paper measured 2,501 s for Koppel vs 1,541 s for its
// own method — so the implementation is iteration-major: one subspace at a
// time, one inverted index per subspace, all unknowns scored against it
// before the next subspace is drawn. Peak memory stays at one subspace
// index regardless of Iterations.
type Koppel struct {
	cfg   KoppelConfig
	known []attribution.Subject
	vocab *features.Vocabulary
	vecs  []sparse.Vector // full-space TF-IDF vectors of the known set
}

// NewKoppel indexes the known subjects over the full feature space.
func NewKoppel(known []attribution.Subject, cfg KoppelConfig) (*Koppel, error) {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 100
	}
	if cfg.FeatureFraction <= 0 || cfg.FeatureFraction > 1 {
		cfg.FeatureFraction = 0.40
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Features.WordMax == 0 {
		cfg.Features = features.ReductionConfig()
	}
	k := &Koppel{cfg: cfg, known: known}
	vb := features.NewVocabBuilder(cfg.Features)
	for i := range known {
		vb.AddSorted(features.Extract(known[i].Text, cfg.Features))
	}
	var err error
	if k.vocab, err = vb.Build(); err != nil {
		return nil, fmt.Errorf("baselines: koppel vocabulary: %w", err)
	}
	k.vecs = make([]sparse.Vector, len(known))
	for i := range known {
		k.vecs[i] = attribution.CompositeVector(&known[i], k.vocab, cfg.Features, koppelWeights)
	}
	return k, nil
}

// koppelWeights mirror the main method's block weighting so the subspace
// voting sees the same feature space.
var koppelWeights = attribution.Weights{Freq: 0.2, Activity: 0.7}

// inSubspace reports whether feature idx belongs to iteration it's random
// subspace. Stateless hash of (seed, iteration, index) — no mask storage.
func (k *Koppel) inSubspace(it int, idx uint32) bool {
	h := splitmix.Mix(k.cfg.Seed ^ splitmix.Mix(uint64(it)*splitmix.Gamma^uint64(idx)))
	return float64(h>>11)/(1<<53) < k.cfg.FeatureFraction
}

type koppelPosting struct {
	subject int
	value   float32
}

// VoteAll runs the full voting procedure and returns, for every unknown,
// the per-known vote shares.
func (k *Koppel) VoteAll(ctx context.Context, unknowns []attribution.Subject) ([][]float64, error) {
	// Query vectors in the full space, computed once.
	queries := make([]sparse.Vector, len(unknowns))
	for i := range unknowns {
		queries[i] = attribution.CompositeVector(&unknowns[i], k.vocab, k.cfg.Features, koppelWeights)
	}
	votes := make([][]int, len(unknowns))
	for i := range votes {
		votes[i] = make([]int, len(k.known))
	}

	for it := 0; it < k.cfg.Iterations; it++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Build the subspace inverted index and known norms.
		postings := make(map[uint32][]koppelPosting)
		norms := make([]float64, len(k.vecs))
		for i, v := range k.vecs {
			for j, idx := range v.Idx {
				if !k.inSubspace(it, idx) {
					continue
				}
				x := v.Val[j]
				norms[i] += x * x
				postings[idx] = append(postings[idx], koppelPosting{subject: i, value: float32(x)})
			}
		}
		for i := range norms {
			norms[i] = math.Sqrt(norms[i])
		}

		// Score every unknown against this subspace concurrently.
		err := parallelEach(ctx, k.cfg.Workers, len(unknowns), func(u int) {
			q := queries[u]
			dots := make([]float32, len(k.known))
			qNorm := 0.0
			for j, idx := range q.Idx {
				if !k.inSubspace(it, idx) {
					continue
				}
				x := q.Val[j]
				qNorm += x * x
				fx := float32(x)
				for _, p := range postings[idx] {
					dots[p.subject] += p.value * fx
				}
			}
			if qNorm == 0 {
				return
			}
			best, bestScore := -1, -1.0
			for i := range dots {
				if norms[i] == 0 {
					continue
				}
				s := float64(dots[i]) / norms[i]
				if s > bestScore {
					best, bestScore = i, s
				}
			}
			if best >= 0 {
				votes[u][best]++
			}
		})
		if err != nil {
			return nil, err
		}
	}

	shares := make([][]float64, len(unknowns))
	for u := range votes {
		shares[u] = make([]float64, len(k.known))
		for i, v := range votes[u] {
			shares[u][i] = float64(v) / float64(k.cfg.Iterations)
		}
	}
	return shares, nil
}

// Match scores one unknown and returns all candidates, best first.
// For many unknowns use Predict — Match pays the full iteration sweep for
// a single query.
func (k *Koppel) Match(unknown *attribution.Subject) []attribution.Scored {
	shares, err := k.VoteAll(context.Background(), []attribution.Subject{*unknown})
	if err != nil || len(shares) == 0 {
		return nil
	}
	out := make([]attribution.Scored, len(k.known))
	for i := range k.known {
		out[i] = attribution.Scored{Name: k.known[i].Name, Score: shares[0][i]}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// Predict returns the best-candidate prediction per unknown.
func (k *Koppel) Predict(ctx context.Context, unknowns []attribution.Subject) ([]eval.Prediction, error) {
	shares, err := k.VoteAll(ctx, unknowns)
	if err != nil {
		return nil, err
	}
	preds := make([]eval.Prediction, len(unknowns))
	for u := range unknowns {
		best, bestScore := -1, -1.0
		for i, s := range shares[u] {
			if s > bestScore || (s == bestScore && best >= 0 && k.known[i].Name < k.known[best].Name) {
				best, bestScore = i, s
			}
		}
		if best >= 0 {
			preds[u] = eval.Prediction{Unknown: unknowns[u].Name, Candidate: k.known[best].Name, Score: bestScore}
		}
	}
	return preds, nil
}
