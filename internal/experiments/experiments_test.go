package experiments

import (
	"strings"
	"testing"

	"darklight/internal/attribution"
)

// The experiment harnesses are exercised end-to-end at a tiny scale: the
// goal is that every table/figure computes, renders, and has the right
// structure — the calibrated shapes are validated at scale by
// cmd/experiments and the benchmark harness.

func tinyLab(t *testing.T) *Lab {
	t.Helper()
	cfg := DefaultLabConfig()
	cfg.Scale = 0.015
	cfg.MaxUnknowns = 40
	cfg.Table3Known = 120
	cfg.Table3Unknowns = 25
	cfg.BaselineKnown = 120
	cfg.BaselineUnknowns = 20
	cfg.BatchUnknowns = 8
	lab, err := NewLab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return lab
}

var sharedLab *Lab

func getLab(t *testing.T) *Lab {
	if sharedLab == nil {
		sharedLab = tinyLab(t)
	}
	return sharedLab
}

func TestLabDatasets(t *testing.T) {
	lab := getLab(t)
	if lab.Reddit.Len() == 0 || lab.AEReddit.Len() == 0 {
		t.Fatal("refined Reddit datasets empty")
	}
	if lab.Reddit.Len() >= lab.RawReddit.Len() {
		t.Error("refinement must drop aliases")
	}
	if lab.AEReddit.Len() > lab.Reddit.Len() {
		t.Error("alter-ego set cannot exceed the main set")
	}
}

func TestTable1Structure(t *testing.T) {
	rep := getLab(t).Table1()
	if len(rep.Rows) == 0 {
		t.Fatal("no rows")
	}
	var drugsPct float64
	total := 0.0
	for _, r := range rep.Rows {
		total += r.MessagesPct
		if r.Topic == "Drugs" {
			drugsPct = r.MessagesPct
		}
		if r.PopularSubreddit == "" || r.PopularMessages == 0 {
			t.Errorf("topic %s missing popular subreddit", r.Topic)
		}
	}
	if total < 99 || total > 101 {
		t.Errorf("message percentages sum to %v", total)
	}
	// Drugs dominates (Table I: 33.7% of messages).
	if drugsPct < 15 {
		t.Errorf("Drugs share = %.1f%%, want dominant", drugsPct)
	}
	if !strings.Contains(rep.String(), "DarkNetMarkets") {
		t.Error("rendering must include the flagship subreddit")
	}
}

func TestFigure1Monotone(t *testing.T) {
	rep := getLab(t).Figure1()
	for i := 1; i < len(rep.TMGCDF); i++ {
		if rep.TMGCDF[i] < rep.TMGCDF[i-1] || rep.DMCDF[i] < rep.DMCDF[i-1] {
			t.Fatal("CDFs must be monotone")
		}
	}
	last := len(rep.TMGCDF) - 1
	if rep.TMGCDF[last] != 1 || rep.DMCDF[last] != 1 {
		t.Error("CDF must reach 1 at the top threshold")
	}
	// DM users write less than TMG users (Fig. 1's shape).
	mid := len(rep.Thresholds) / 2
	if rep.DMCDF[mid] < rep.TMGCDF[mid] {
		t.Error("DM CDF should sit above TMG (fewer words per user)")
	}
}

func TestTable2Realised(t *testing.T) {
	rep, err := getLab(t).Table2()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RealisedWordGrams == 0 || rep.RealisedCharGrams == 0 {
		t.Error("realised vocabulary empty")
	}
	if rep.FreqFeatures != 42 || rep.ActivityDims != 24 {
		t.Errorf("feature dims = %d/%d", rep.FreqFeatures, rep.ActivityDims)
	}
}

func TestTable4Counts(t *testing.T) {
	lab := getLab(t)
	rep := lab.Table4()
	if len(rep.Rows) != 6 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	if rep.Rows[0].Aliases != lab.Reddit.Len() || rep.Rows[1].Aliases != lab.AEReddit.Len() {
		t.Error("Reddit rows wrong")
	}
}

func TestFigure2AndTable5(t *testing.T) {
	lab := getLab(t)
	f2, err := lab.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if f2.Threshold <= 0 || f2.Threshold >= 1 {
		t.Errorf("threshold = %v", f2.Threshold)
	}
	if f2.W1.AUC() < 0.3 {
		t.Errorf("W1 AUC = %v — even the tiny lab should do better", f2.W1.AUC())
	}
	t5, err := lab.Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(t5.PerForum) != 4 || len(t5.Global) != 4 {
		t.Fatalf("table V rows = %d/%d", len(t5.PerForum), len(t5.Global))
	}
	if t5.DarkAccuracy < 0.3 {
		t.Errorf("dark 10-attribution accuracy = %v", t5.DarkAccuracy)
	}
}

func TestTable6AndFigure5(t *testing.T) {
	lab := getLab(t)
	t6, err := lab.Table6()
	if err != nil {
		t.Fatal(err)
	}
	if len(t6.Rows) != 3 {
		t.Fatalf("rows = %d", len(t6.Rows))
	}
	for _, r := range t6.Rows {
		if r.AUCWithReduction < 0 || r.AUCWithReduction > 1 || r.AUCWithout < 0 || r.AUCWithout > 1 {
			t.Errorf("%s AUCs out of range: %+v", r.Forum, r)
		}
	}
	f5, err := lab.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if len(f5.Table.Curves) != 6 {
		t.Errorf("figure 5 curves = %d", len(f5.Table.Curves))
	}
}

func TestFigure4Shape(t *testing.T) {
	rep, err := getLab(t).Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Ks) != 10 {
		t.Fatalf("k values = %d", len(rep.Ks))
	}
	// Accuracy is monotone in k for a fixed ranking.
	for i := 1; i < 10; i++ {
		if rep.RedditAll[i] < rep.RedditAll[i-1] || rep.RedditText[i] < rep.RedditText[i-1] {
			t.Error("accuracy@k must be monotone in k")
		}
	}
}

func TestCrossForumReports(t *testing.T) {
	lab := getLab(t)
	vb, err := lab.TMGvsDM()
	if err != nil {
		t.Fatal(err)
	}
	if vb.Threshold <= 0 {
		t.Error("threshold missing")
	}
	vc, err := lab.RedditVsDarkWeb()
	if err != nil {
		t.Fatal(err)
	}
	if vc.Known == 0 || vc.Unknowns == 0 {
		t.Error("population counts missing")
	}
	// Every classified pair carries a verdict.
	for _, p := range append(vb.Pairs, vc.Pairs...) {
		switch p.Verdict {
		case "True", "Probably True", "Unclear", "False":
		default:
			t.Errorf("bad verdict %q", p.Verdict)
		}
	}
	// Rendering and profile generation must not panic regardless of
	// whether a True pair exists at this scale.
	_ = vb.String()
	_ = vc.String()
	_ = lab.ProfileBestMatch(vc).String()
}

func TestBatchProcedureReport(t *testing.T) {
	rep, err := getLab(t).BatchProcedure()
	if err != nil {
		t.Fatal(err)
	}
	if rep.B != 100 {
		t.Errorf("B = %d", rep.B)
	}
	if rep.BatchedAgreesWithPc < 0.5 {
		t.Errorf("batched agreement = %v — should mostly match direct", rep.BatchedAgreesWithPc)
	}
}

func TestTable3SingleRow(t *testing.T) {
	lab := getLab(t)
	row, err := lab.table3Row(400)
	if err != nil {
		t.Fatal(err)
	}
	if row.K10Text < row.K1Text || row.K10All < row.K1All {
		t.Error("k=10 accuracy cannot be below k=1")
	}
	if row.Unknowns == 0 || row.KnownSize == 0 {
		t.Error("row metadata missing")
	}
}

func TestSampleKnownUnknownPreservesMates(t *testing.T) {
	lab := getLab(t)
	opts := lab.SubjectOpts()
	known, unknown := sampleKnownUnknown(
		attributionSubjects(lab, opts), attributionAESubjects(lab, opts), 50, 20, 9)
	names := map[string]bool{}
	for _, k := range known {
		names[k.Name] = true
	}
	for _, u := range unknown {
		if !names[u.Name] {
			t.Fatalf("unknown %q has no mate in the known sample", u.Name)
		}
	}
}

func attributionSubjects(l *Lab, opts attribution.SubjectOptions) []attribution.Subject {
	subs, err := attribution.BuildSubjects(l.Reddit, opts)
	if err != nil {
		panic(err)
	}
	return subs
}

func attributionAESubjects(l *Lab, opts attribution.SubjectOptions) []attribution.Subject {
	subs, err := attribution.BuildSubjects(l.AEReddit, opts)
	if err != nil {
		panic(err)
	}
	return subs
}
