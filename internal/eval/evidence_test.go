package eval

import (
	"testing"

	"darklight/internal/synth"
)

// buildTruth constructs a minimal ground truth: two aliases per person,
// with controllable revealed facts and link evidence.
func buildTruth() *synth.GroundTruth {
	t := &synth.GroundTruth{
		PersonOf:     map[string]int{},
		AliasesOf:    map[int][]string{},
		Facts:        map[int][]synth.Fact{},
		Revealed:     map[string][]synth.Fact{},
		LinkEvidence: map[string][]string{},
		Vendors:      map[int]bool{},
	}
	add := func(id int, keys ...string) {
		for _, k := range keys {
			t.PersonOf[k] = id
			t.AliasesOf[id] = append(t.AliasesOf[id], k)
		}
	}
	add(1, "dm/alpha", "reddit/alpha_open")
	add(2, "dm/beta", "reddit/beta_open")
	add(3, "dm/gamma", "reddit/gamma_open")
	add(4, "dm/delta")
	add(5, "reddit/delta_open")
	return t
}

func fact(k synth.FactKind, v string) synth.Fact { return synth.Fact{Kind: k, Value: v} }

func TestClassifyTrueViaLinkEvidence(t *testing.T) {
	truth := buildTruth()
	truth.LinkEvidence["dm/alpha"] = []string{"self-reference"}
	ins := NewInspector(truth)
	if got := ins.Classify("dm/alpha", "reddit/alpha_open"); got != VerdictTrue {
		t.Errorf("verdict = %v, want True", got)
	}
	// Link evidence on the other side works too.
	truth2 := buildTruth()
	truth2.LinkEvidence["reddit/beta_open"] = []string{"shared-link"}
	ins2 := NewInspector(truth2)
	if got := ins2.Classify("dm/beta", "reddit/beta_open"); got != VerdictTrue {
		t.Errorf("verdict = %v, want True", got)
	}
}

func TestClassifyFalseOnContradiction(t *testing.T) {
	truth := buildTruth()
	// Different persons revealing contradictory ages (§V-C: "20 years old
	// on the Dark Web and 34 on Reddit").
	truth.Revealed["dm/delta"] = []synth.Fact{fact(synth.FactAge, "20")}
	truth.Revealed["reddit/delta_open"] = []synth.Fact{fact(synth.FactAge, "34")}
	ins := NewInspector(truth)
	if got := ins.Classify("dm/delta", "reddit/delta_open"); got != VerdictFalse {
		t.Errorf("verdict = %v, want False", got)
	}
}

func TestClassifyProbablyTrue(t *testing.T) {
	truth := buildTruth()
	shared := []synth.Fact{
		fact(synth.FactCity, "miami"),
		fact(synth.FactVendorRef, "greenleaf"),
	}
	truth.Revealed["dm/gamma"] = shared
	truth.Revealed["reddit/gamma_open"] = shared
	ins := NewInspector(truth)
	if got := ins.Classify("dm/gamma", "reddit/gamma_open"); got != VerdictProbablyTrue {
		t.Errorf("verdict = %v, want Probably True", got)
	}
}

func TestDrugAloneIsNotDiscriminative(t *testing.T) {
	truth := buildTruth()
	// §V-C: sharing only the kind of drug is not enough.
	truth.Revealed["dm/gamma"] = []synth.Fact{fact(synth.FactDrug, "lsd"), fact(synth.FactCity, "miami")}
	truth.Revealed["reddit/gamma_open"] = []synth.Fact{fact(synth.FactDrug, "lsd"), fact(synth.FactCity, "miami")}
	ins := NewInspector(truth)
	// drug + city = only ONE non-drug consistent kind → Unclear.
	if got := ins.Classify("dm/gamma", "reddit/gamma_open"); got != VerdictUnclear {
		t.Errorf("verdict = %v, want Unclear (drug must not count)", got)
	}
}

func TestClassifyUnclearWithoutEvidence(t *testing.T) {
	truth := buildTruth()
	ins := NewInspector(truth)
	if got := ins.Classify("dm/alpha", "reddit/alpha_open"); got != VerdictUnclear {
		t.Errorf("no-evidence same-person pair = %v, want Unclear", got)
	}
	if got := ins.Classify("dm/delta", "reddit/delta_open"); got != VerdictUnclear {
		t.Errorf("no-evidence different-person pair = %v, want Unclear", got)
	}
}

func TestLinkEvidenceDoesNotLeakAcrossPersons(t *testing.T) {
	truth := buildTruth()
	// delta (dm) has link evidence but delta_open is a DIFFERENT person:
	// the inspector must not return True.
	truth.LinkEvidence["dm/delta"] = []string{"self-reference"}
	ins := NewInspector(truth)
	if got := ins.Classify("dm/delta", "reddit/delta_open"); got == VerdictTrue {
		t.Error("link evidence must only confirm true same-person pairs")
	}
}

func TestClassifyAllAndCounts(t *testing.T) {
	truth := buildTruth()
	truth.LinkEvidence["dm/alpha"] = []string{"brand-reuse"}
	truth.Revealed["dm/delta"] = []synth.Fact{fact(synth.FactAge, "20")}
	truth.Revealed["reddit/delta_open"] = []synth.Fact{fact(synth.FactAge, "34")}
	ins := NewInspector(truth)

	preds := []Prediction{
		{Unknown: "alpha", Candidate: "alpha_open", Score: 0.8},
		{Unknown: "delta", Candidate: "delta_open", Score: 0.6},
		{Unknown: "beta", Candidate: "beta_open", Score: 0.7},
	}
	reports := ins.ClassifyAll(preds,
		func(n string) string { return "dm/" + n },
		func(n string) string { return "reddit/" + n })
	if len(reports) != 3 {
		t.Fatalf("reports = %d", len(reports))
	}
	// Sorted by score descending.
	if reports[0].Unknown != "alpha" || reports[2].Unknown != "delta" {
		t.Error("reports must be sorted by score")
	}
	if !reports[0].Correct || reports[2].Correct {
		t.Error("Correct flags wrong")
	}
}
