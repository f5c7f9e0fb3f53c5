package eval

import (
	"math"
	"testing"
)

func same(u, c string) bool { return u == c }

func TestPRCurveHandComputed(t *testing.T) {
	// Scores descending: correct, correct, wrong, correct.
	preds := []Prediction{
		{"a", "a", 0.9},
		{"b", "b", 0.8},
		{"c", "x", 0.7},
		{"d", "d", 0.6},
	}
	c := PRCurve(preds, same, 4)
	if len(c.Points) != 4 {
		t.Fatalf("points = %d", len(c.Points))
	}
	// After 2 predictions: P=1, R=0.5. After 3: P=2/3, R=0.5. After 4: P=3/4, R=3/4.
	want := []PRPoint{
		{0.9, 1, 0.25},
		{0.8, 1, 0.5},
		{0.7, 2.0 / 3.0, 0.5},
		{0.6, 0.75, 0.75},
	}
	for i, w := range want {
		g := c.Points[i]
		if g.Threshold != w.Threshold || math.Abs(g.Precision-w.Precision) > 1e-12 || math.Abs(g.Recall-w.Recall) > 1e-12 {
			t.Errorf("point %d = %+v, want %+v", i, g, w)
		}
	}
}

func TestPRCurveTiesCollapse(t *testing.T) {
	preds := []Prediction{
		{"a", "a", 0.5},
		{"b", "x", 0.5},
	}
	c := PRCurve(preds, same, 2)
	if len(c.Points) != 1 {
		t.Fatalf("tied scores must collapse to one point, got %d", len(c.Points))
	}
	if c.Points[0].Precision != 0.5 || c.Points[0].Recall != 0.5 {
		t.Errorf("point = %+v", c.Points[0])
	}
}

func TestAtThreshold(t *testing.T) {
	preds := []Prediction{
		{"a", "a", 0.9},
		{"b", "x", 0.5},
	}
	c := PRCurve(preds, same, 2)
	p, r := c.AtThreshold(0.7)
	if p != 1 || r != 0.5 {
		t.Errorf("AtThreshold(0.7) = %v, %v", p, r)
	}
	p, r = c.AtThreshold(0.4)
	if p != 0.5 || r != 0.5 {
		t.Errorf("AtThreshold(0.4) = %v, %v", p, r)
	}
	p, r = c.AtThreshold(0.95)
	if p != 0 || r != 0 {
		t.Errorf("AtThreshold above max = %v, %v", p, r)
	}
}

func TestThresholdForRecall(t *testing.T) {
	preds := []Prediction{
		{"a", "a", 0.9},
		{"b", "b", 0.8},
		{"c", "c", 0.7},
		{"d", "x", 0.6},
	}
	c := PRCurve(preds, same, 4)
	pt, ok := c.ThresholdForRecall(0.5)
	if !ok || pt.Threshold != 0.8 {
		t.Errorf("ThresholdForRecall(0.5) = %+v, %v", pt, ok)
	}
	if _, ok := c.ThresholdForRecall(0.9); ok {
		t.Error("recall 0.9 unreachable (only 3 of 4 correct)")
	}
}

func TestAUCPerfectAndZero(t *testing.T) {
	perfect := PRCurve([]Prediction{
		{"a", "a", 0.9}, {"b", "b", 0.8}, {"c", "c", 0.7},
	}, same, 3)
	if got := perfect.AUC(); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect AUC = %v", got)
	}
	hopeless := PRCurve([]Prediction{
		{"a", "x", 0.9}, {"b", "y", 0.8},
	}, same, 2)
	if got := hopeless.AUC(); got != 0 {
		t.Errorf("hopeless AUC = %v", got)
	}
	var empty Curve
	if empty.AUC() != 0 {
		t.Error("empty curve AUC must be 0")
	}
}

func TestBestF1(t *testing.T) {
	preds := []Prediction{
		{"a", "a", 0.9},
		{"b", "b", 0.8},
		{"c", "x", 0.7},
	}
	c := PRCurve(preds, same, 2)
	best := c.BestF1()
	if best.Threshold != 0.8 {
		t.Errorf("BestF1 at %v, want 0.8", best.Threshold)
	}
}

func TestAccuracyAtK(t *testing.T) {
	rankings := []Ranking{
		{Unknown: "a", Candidates: []string{"a", "b", "c"}},
		{Unknown: "b", Candidates: []string{"x", "b", "c"}},
		{Unknown: "c", Candidates: []string{"x", "y", "z"}},
	}
	if got := AccuracyAtK(rankings, same, 1); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("acc@1 = %v", got)
	}
	if got := AccuracyAtK(rankings, same, 2); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("acc@2 = %v", got)
	}
	if got := AccuracyAtK(rankings, same, 10); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("acc@10 = %v (k beyond list length)", got)
	}
	if got := AccuracyAtK(nil, same, 1); got != 0 {
		t.Error("empty rankings accuracy must be 0")
	}
}

func TestPRCurveDeterministicUnderTies(t *testing.T) {
	preds := []Prediction{
		{"b", "y", 0.5}, {"a", "a", 0.5}, {"c", "c", 0.9},
	}
	c1 := PRCurve(preds, same, 3)
	// Shuffled input, same curve.
	c2 := PRCurve([]Prediction{preds[2], preds[0], preds[1]}, same, 3)
	if len(c1.Points) != len(c2.Points) {
		t.Fatal("curves differ")
	}
	for i := range c1.Points {
		if c1.Points[i] != c2.Points[i] {
			t.Error("curve must be independent of input order")
		}
	}
}
