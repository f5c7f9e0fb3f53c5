// Package eval implements the evaluation machinery of the paper:
// precision–recall curves over match-score thresholds (§IV-E, Fig. 2/3/5),
// area under the PR curve (§IV-H, Table VI), k-attribution accuracy
// (Table III, Fig. 4), and the §V-A evidence-based pair classification
// (True / Probably True / Unclear / False).
package eval

import (
	"fmt"
	"sort"
	"strings"
)

// Prediction is one proposed match: an unknown alias, its best candidate
// from the known set, and the similarity score.
type Prediction struct {
	Unknown   string
	Candidate string
	Score     float64
}

// PRPoint is one operating point of a precision–recall curve.
type PRPoint struct {
	Threshold float64
	Precision float64
	Recall    float64
}

// Curve is a precision–recall curve, ordered by descending threshold
// (i.e. increasing recall).
type Curve struct {
	Points []PRPoint
	// TotalRelevant is the recall denominator used to build the curve.
	TotalRelevant int
}

// PRCurve sweeps the threshold over every prediction score. A pair counts
// as correct when isCorrect(unknown, candidate) is true. totalRelevant is
// the number of unknowns that truly have a match in the known set — the
// recall denominator. In alter-ego experiments every unknown has one, so
// totalRelevant is the number of unknowns.
func PRCurve(preds []Prediction, isCorrect func(unknown, candidate string) bool, totalRelevant int) Curve {
	sorted := append([]Prediction(nil), preds...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Score != sorted[j].Score {
			return sorted[i].Score > sorted[j].Score
		}
		if sorted[i].Unknown != sorted[j].Unknown {
			return sorted[i].Unknown < sorted[j].Unknown
		}
		return sorted[i].Candidate < sorted[j].Candidate
	})
	c := Curve{TotalRelevant: totalRelevant}
	if totalRelevant <= 0 {
		return c
	}
	tp, fp := 0, 0
	for i, p := range sorted {
		if isCorrect(p.Unknown, p.Candidate) {
			tp++
		} else {
			fp++
		}
		// Emit a point only at distinct thresholds (ties collapse).
		if i+1 < len(sorted) && sorted[i+1].Score == p.Score {
			continue
		}
		c.Points = append(c.Points, PRPoint{
			Threshold: p.Score,
			Precision: float64(tp) / float64(tp+fp),
			Recall:    float64(tp) / float64(totalRelevant),
		})
	}
	return c
}

// AtThreshold returns precision and recall when accepting pairs with score
// ≥ t. Returns zeros when no prediction clears the threshold.
func (c Curve) AtThreshold(t float64) (precision, recall float64) {
	var best *PRPoint
	for i := range c.Points {
		if c.Points[i].Threshold >= t {
			best = &c.Points[i]
		} else {
			break
		}
	}
	if best == nil {
		return 0, 0
	}
	return best.Precision, best.Recall
}

// ThresholdForRecall returns the highest threshold whose recall is at least
// target, and the curve point there. The paper's Table V reports the
// thresholds associated with 80% recall. ok is false when the curve never
// reaches the target recall.
func (c Curve) ThresholdForRecall(target float64) (PRPoint, bool) {
	for _, p := range c.Points {
		if p.Recall >= target {
			return p, true
		}
	}
	return PRPoint{}, false
}

// BestF1 returns the point maximising F1, a convenient single-number
// summary for tests.
func (c Curve) BestF1() PRPoint {
	var best PRPoint
	bestF1 := -1.0
	for _, p := range c.Points {
		if p.Precision+p.Recall == 0 {
			continue
		}
		f1 := 2 * p.Precision * p.Recall / (p.Precision + p.Recall)
		if f1 > bestF1 {
			bestF1 = f1
			best = p
		}
	}
	return best
}

// AUC integrates precision over recall (trapezoidal), the metric of
// Table VI. An empty curve has AUC 0.
func (c Curve) AUC() float64 {
	if len(c.Points) == 0 {
		return 0
	}
	auc := 0.0
	prevR := 0.0
	prevP := c.Points[0].Precision
	for _, p := range c.Points {
		auc += (p.Recall - prevR) * (p.Precision + prevP) / 2
		prevR, prevP = p.Recall, p.Precision
	}
	return auc
}

// String renders a compact curve summary.
func (c Curve) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "PR curve (%d points, AUC %.3f)", len(c.Points), c.AUC())
	return b.String()
}

// Ranking is an unknown alias's candidate list, best first.
type Ranking struct {
	Unknown    string
	Candidates []string
	Scores     []float64
}

// AccuracyAtK returns the fraction of rankings whose correct candidate
// appears within the first k entries — the k-attribution accuracy of
// Table III and Fig. 4.
func AccuracyAtK(rankings []Ranking, isCorrect func(unknown, candidate string) bool, k int) float64 {
	if len(rankings) == 0 {
		return 0
	}
	hit := 0
	for _, r := range rankings {
		limit := k
		if limit > len(r.Candidates) {
			limit = len(r.Candidates)
		}
		for i := 0; i < limit; i++ {
			if isCorrect(r.Unknown, r.Candidates[i]) {
				hit++
				break
			}
		}
	}
	return float64(hit) / float64(len(rankings))
}

// MeanReciprocalRank computes MRR over the rankings, an extension metric
// not in the paper but useful for ablation comparisons.
func MeanReciprocalRank(rankings []Ranking, isCorrect func(unknown, candidate string) bool) float64 {
	if len(rankings) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range rankings {
		for i, c := range r.Candidates {
			if isCorrect(r.Unknown, c) {
				sum += 1 / float64(i+1)
				break
			}
		}
	}
	return sum / float64(len(rankings))
}

// SameName is the correctness predicate for alter-ego experiments: the
// alter-ego keeps the original alias name, so a match is correct iff the
// names are equal.
func SameName(unknown, candidate string) bool { return unknown == candidate }

// F1 computes the harmonic mean of precision and recall.
func F1(precision, recall float64) float64 {
	if precision+recall == 0 {
		return 0
	}
	return 2 * precision * recall / (precision + recall)
}
