package eval

import (
	"sort"

	"darklight/internal/synth"
)

// Verdict is the §V-A manual-inspection outcome for one proposed pair.
type Verdict string

// The four verdict classes of §V-A.
const (
	// VerdictTrue: clear evidence the aliases belong to the same user
	// (self-declared alias, shared unique link or mail address).
	VerdictTrue Verdict = "True"
	// VerdictProbablyTrue: consistent biography without explicit linking
	// evidence (same city + same vendor complaint, same hobbies).
	VerdictProbablyTrue Verdict = "Probably True"
	// VerdictUnclear: no exploitable information on one or both sides.
	VerdictUnclear Verdict = "Unclear"
	// VerdictFalse: the two aliases disclose contradictory information.
	VerdictFalse Verdict = "False"
)

// Inspector simulates the paper's manual pair inspection against the
// generator's ground truth of planted evidence. It never looks at
// GroundTruth.PersonOf — only at what the messages actually revealed —
// so its verdicts behave like a human reading the raw posts.
type Inspector struct {
	truth *synth.GroundTruth
}

// NewInspector wraps the ground truth of a generated world.
func NewInspector(truth *synth.GroundTruth) *Inspector {
	return &Inspector{truth: truth}
}

// Classify inspects one proposed pair of alias keys ("platform/name").
//
// Decision procedure, mirroring §V-A and the examples of §V-C:
//
//  1. Explicit link evidence on either alias that actually connects the two
//     (the planted reference names the other alias / both share the planted
//     link or mail) → True. In ground-truth terms: both aliases belong to
//     one person and at least one side carries link evidence.
//  2. Any contradictory revealed fact (age 20 vs 34, Christian vs Atheist,
//     pro- vs anti-Trump, Poland vs USA) → False.
//  3. Two or more consistent revealed facts — drug preference alone does
//     not count, the paper found it non-discriminative → Probably True.
//  4. Otherwise → Unclear.
func (ins *Inspector) Classify(keyA, keyB string) Verdict {
	t := ins.truth
	samePerson := t.SamePerson(keyA, keyB)
	if samePerson && (len(t.LinkEvidence[keyA]) > 0 || len(t.LinkEvidence[keyB]) > 0) {
		return VerdictTrue
	}

	factsA := t.Revealed[keyA]
	factsB := t.Revealed[keyB]
	consistentKinds := map[synth.FactKind]bool{}
	contradiction := false
	for _, fa := range factsA {
		for _, fb := range factsB {
			switch {
			case synth.Contradicts(fa, fb):
				contradiction = true
			case synth.Consistent(fa, fb):
				consistentKinds[fa.Kind] = true
			}
		}
	}
	if contradiction {
		return VerdictFalse
	}
	delete(consistentKinds, synth.FactDrug) // §V-C: "per se it is not discriminative"
	if len(consistentKinds) >= 2 {
		return VerdictProbablyTrue
	}
	return VerdictUnclear
}

// PairReport is a classified proposed match.
type PairReport struct {
	Unknown   string
	Candidate string
	Score     float64
	Verdict   Verdict
	// Correct is the ground-truth answer (not available to a real analyst;
	// recorded so experiments can measure the inspector itself).
	Correct bool
}

// ClassifyAll inspects every prediction. Keys are built as
// "<platform>/<name>" by the caller-provided key functions.
func (ins *Inspector) ClassifyAll(preds []Prediction, keyOfUnknown, keyOfCandidate func(string) string) []PairReport {
	out := make([]PairReport, 0, len(preds))
	for _, p := range preds {
		ku, kc := keyOfUnknown(p.Unknown), keyOfCandidate(p.Candidate)
		out = append(out, PairReport{
			Unknown:   p.Unknown,
			Candidate: p.Candidate,
			Score:     p.Score,
			Verdict:   ins.Classify(ku, kc),
			Correct:   ins.truth.SamePerson(ku, kc),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}
