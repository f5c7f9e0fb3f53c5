package experiments

import (
	"fmt"
	"strings"
	"time"

	"darklight/internal/attribution"
	"darklight/internal/baselines"
	"darklight/internal/corpus"
	"darklight/internal/eval"
)

// ---------------------------------------------------------------- Fig. 1

// Figure1Report reproduces Fig. 1: the cumulative distribution of the
// number of words per user on the Dark Web forums.
type Figure1Report struct {
	Thresholds []int
	TMGCDF     []float64
	DMCDF      []float64
	TMGUsers   int
	DMUsers    int
}

// Figure1Thresholds spans the word counts of interest (log-ish spacing).
var Figure1Thresholds = []int{50, 100, 200, 300, 500, 750, 1000, 1500, 2000, 3000, 5000, 10000, 20000, 50000}

// Figure1 computes the CDFs on the polished (pre-refinement) datasets —
// the figure motivates the refinement thresholds, so it must include the
// users those thresholds drop.
func (l *Lab) Figure1() *Figure1Report {
	return &Figure1Report{
		Thresholds: Figure1Thresholds,
		TMGCDF:     corpus.WordCountCDF(l.RawTMG, Figure1Thresholds),
		DMCDF:      corpus.WordCountCDF(l.RawDM, Figure1Thresholds),
		TMGUsers:   l.RawTMG.Len(),
		DMUsers:    l.RawDM.Len(),
	}
}

// String renders the CDF series.
func (r *Figure1Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 — CDF of words per user (TMG %d users, DM %d users)\n", r.TMGUsers, r.DMUsers)
	fmt.Fprintf(&b, "%10s %10s %10s\n", "words ≤", "TMG", "DM")
	for i, t := range r.Thresholds {
		fmt.Fprintf(&b, "%10d %9.1f%% %9.1f%%\n", t, 100*r.TMGCDF[i], 100*r.DMCDF[i])
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig. 2

// Figure2Report reproduces Fig. 2: the precision–recall curves of the two
// Reddit alter-ego splits W1 and W2, and the threshold chosen on W1.
type Figure2Report struct {
	W1, W2 eval.Curve
	// Threshold is the operating point chosen on W1 (80% recall, §IV-E).
	Threshold   float64
	W1Precision float64
	W1Recall    float64
	W2Precision float64
	W2Recall    float64
}

// Figure2 runs the threshold-finding experiment.
func (l *Lab) Figure2() (*Figure2Report, error) {
	curves, err := l.aeCurves()
	if err != nil {
		return nil, err
	}
	rep := &Figure2Report{W1: curves.w1, W2: curves.w2}
	if p, ok := curves.w1.ThresholdForRecall(0.80); ok {
		rep.Threshold = p.Threshold
	} else {
		rep.Threshold = attribution.DefaultThreshold
	}
	rep.W1Precision, rep.W1Recall = curves.w1.AtThreshold(rep.Threshold)
	rep.W2Precision, rep.W2Recall = curves.w2.AtThreshold(rep.Threshold)
	return rep, nil
}

// String renders both curves and the operating points.
func (r *Figure2Report) String() string {
	var b strings.Builder
	b.WriteString("Figure 2 — precision-recall curves for sets W1 and W2\n")
	fmt.Fprintf(&b, "threshold (chosen on W1 at 80%% recall): %.4f\n", r.Threshold)
	fmt.Fprintf(&b, "W1: P=%.1f%% R=%.1f%% (AUC %.2f)   W2: P=%.1f%% R=%.1f%% (AUC %.2f)\n",
		100*r.W1Precision, 100*r.W1Recall, r.W1.AUC(),
		100*r.W2Precision, 100*r.W2Recall, r.W2.AUC())
	b.WriteString(renderCurves(map[string]eval.Curve{"W1": r.W1, "W2": r.W2}))
	return b.String()
}

// renderCurves prints curve points at fixed recall grid lines.
func renderCurves(curves map[string]eval.Curve) string {
	grid := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0}
	names := make([]string, 0, len(curves))
	for n := range curves {
		names = append(names, n)
	}
	sortStrings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%8s", "recall")
	for _, n := range names {
		fmt.Fprintf(&b, " %12s", "P("+n+")")
	}
	b.WriteByte('\n')
	for _, rec := range grid {
		fmt.Fprintf(&b, "%7.0f%%", 100*rec)
		for _, n := range names {
			p := precisionAtRecall(curves[n], rec)
			if p < 0 {
				fmt.Fprintf(&b, " %12s", "-")
			} else {
				fmt.Fprintf(&b, " %11.1f%%", 100*p)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// precisionAtRecall returns the precision of the first curve point with at
// least the target recall, -1 when the curve never gets there.
func precisionAtRecall(c eval.Curve, recall float64) float64 {
	if p, ok := c.ThresholdForRecall(recall); ok {
		return p.Precision
	}
	return -1
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// ---------------------------------------------------------------- Fig. 3

// Figure3Report reproduces Fig. 3 and the §IV-F runtime comparison: the
// Standard baseline, the Koppel baseline, and our method on the same data.
type Figure3Report struct {
	Standard, Koppel, Ours eval.Curve
	StandardTime           time.Duration
	KoppelTime             time.Duration
	OursTime               time.Duration
	Known, Unknowns        int
}

// Figure3 runs all three methods over the same known/unknown sets.
func (l *Lab) Figure3() (*Figure3Report, error) {
	opts := l.SubjectOpts()
	knownAll, err := attribution.BuildSubjects(l.Reddit, opts)
	if err != nil {
		return nil, err
	}
	aeAll, err := attribution.BuildSubjects(l.AEReddit, opts)
	if err != nil {
		return nil, err
	}
	known, unknown := sampleKnownUnknown(knownAll, aeAll,
		l.Cfg.BaselineKnown, l.Cfg.BaselineUnknowns, int64(l.Cfg.Seed)+404)
	rep := &Figure3Report{Known: len(known), Unknowns: len(unknown)}
	ctx := l.Context()

	// Standard baseline: space-free char 4-grams + cosine.
	t := StartTimer()
	std := baselines.NewStandard(known, l.Cfg.Workers)
	stdPreds, err := std.Predict(ctx, unknown)
	if err != nil {
		return nil, err
	}
	rep.StandardTime = t.Elapsed()
	rep.Standard = eval.PRCurve(stdPreds, eval.SameName, len(unknown))

	// Our method: full two-stage pipeline.
	t = StartTimer()
	m, err := attribution.NewMatcher(known, l.MatcherOpts())
	if err != nil {
		return nil, err
	}
	results, err := m.MatchAll(ctx, unknown)
	if err != nil {
		return nil, err
	}
	rep.OursTime = t.Elapsed()
	rep.Ours = eval.PRCurve(predictionsOf(results), eval.SameName, len(unknown))

	// Koppel baseline: 100 random 40% subspaces, vote share as score.
	t = StartTimer()
	kcfg := baselines.DefaultKoppelConfig()
	kcfg.Seed = l.Cfg.Seed
	kcfg.Workers = l.Cfg.Workers
	kop, err := baselines.NewKoppel(known, kcfg)
	if err != nil {
		return nil, err
	}
	kopPreds, err := kop.Predict(ctx, unknown)
	if err != nil {
		return nil, err
	}
	rep.KoppelTime = t.Elapsed()
	rep.Koppel = eval.PRCurve(kopPreds, eval.SameName, len(unknown))
	return rep, nil
}

// String renders AUCs, runtimes, and the curves.
func (r *Figure3Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 — baseline comparison (%d known, %d unknowns)\n", r.Known, r.Unknowns)
	fmt.Fprintf(&b, "%-18s %8s %12s\n", "method", "AUC", "runtime")
	fmt.Fprintf(&b, "%-18s %8.2f %12s\n", "Standard Baseline", r.Standard.AUC(), r.StandardTime.Round(time.Millisecond))
	fmt.Fprintf(&b, "%-18s %8.2f %12s\n", "Koppel Baseline", r.Koppel.AUC(), r.KoppelTime.Round(time.Millisecond))
	fmt.Fprintf(&b, "%-18s %8.2f %12s\n", "Our method", r.Ours.AUC(), r.OursTime.Round(time.Millisecond))
	b.WriteString(renderCurves(map[string]eval.Curve{
		"std": r.Standard, "koppel": r.Koppel, "ours": r.Ours,
	}))
	return b.String()
}

// ---------------------------------------------------------------- Fig. 4

// Figure4Report reproduces Fig. 4: k-attribution accuracy as k grows, with
// and without the daily-activity feature, on Reddit (a) and the merged
// Dark Web forums (b).
type Figure4Report struct {
	Ks           []int
	RedditText   []float64
	RedditAll    []float64
	DarkText     []float64
	DarkAll      []float64
	RedditKnown  int
	DarkKnown    int
	RedditProbes int
	DarkProbes   int
}

// Figure4 sweeps k from 1 to 10 on both platforms.
func (l *Lab) Figure4() (*Figure4Report, error) {
	rep := &Figure4Report{}
	for k := 1; k <= 10; k++ {
		rep.Ks = append(rep.Ks, k)
	}

	mo := l.MatcherOpts()
	textW := attribution.Weights{Freq: mo.FreqWeight, Activity: 0}
	allW := attribution.Weights{Freq: mo.FreqWeight, Activity: mo.ActivityWeight}

	// Reddit.
	rm, err := l.RedditMatcher()
	if err != nil {
		return nil, err
	}
	redditAEAll, err := attribution.BuildSubjects(l.AEReddit, l.SubjectOpts())
	if err != nil {
		return nil, err
	}
	redditAE := sampleSubjects(redditAEAll,
		l.Cfg.Table3Unknowns, int64(l.Cfg.Seed)+606)
	rText, rAll := rankPair(rm, redditAE, textW, allW)
	rep.RedditKnown, rep.RedditProbes = rm.NumKnown(), len(redditAE)

	// Merged Dark Web.
	dm, err := l.DarkMatcher()
	if err != nil {
		return nil, err
	}
	_, darkAE := l.DarkWeb()
	darkSubjects, err := attribution.BuildSubjects(darkAE, l.SubjectOpts())
	if err != nil {
		return nil, err
	}
	dText, dAll := rankPair(dm, darkSubjects, textW, allW)
	rep.DarkKnown, rep.DarkProbes = dm.NumKnown(), len(darkSubjects)

	for _, k := range rep.Ks {
		rep.RedditText = append(rep.RedditText, eval.AccuracyAtK(rText, eval.SameName, k))
		rep.RedditAll = append(rep.RedditAll, eval.AccuracyAtK(rAll, eval.SameName, k))
		rep.DarkText = append(rep.DarkText, eval.AccuracyAtK(dText, eval.SameName, k))
		rep.DarkAll = append(rep.DarkAll, eval.AccuracyAtK(dAll, eval.SameName, k))
	}
	return rep, nil
}

// rankPair ranks every probe's top 10 under both weightings. A probe is
// prepared once: its blocks do not depend on the weights.
func rankPair(m *attribution.Matcher, probes []attribution.Subject, textW, allW attribution.Weights) (text, all []eval.Ranking) {
	for i := range probes {
		q := m.Prepare(&probes[i])
		rt, _ := q.Rank(attribution.MatchOptions{K: 10, Weights: &textW})
		ra, _ := q.Rank(attribution.MatchOptions{K: 10, Weights: &allW})
		text = append(text, rankingOf(probes[i].Name, rt))
		all = append(all, rankingOf(probes[i].Name, ra))
	}
	return text, all
}

// String renders both panels.
func (r *Figure4Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 — impact of the daily activity feature\n")
	fmt.Fprintf(&b, "(a) Reddit: %d known, %d probes    (b) DarkWeb: %d known, %d probes\n",
		r.RedditKnown, r.RedditProbes, r.DarkKnown, r.DarkProbes)
	fmt.Fprintf(&b, "%4s %14s %14s %14s %14s\n", "k", "reddit(text)", "reddit(all)", "dark(text)", "dark(all)")
	for i, k := range r.Ks {
		fmt.Fprintf(&b, "%4d %13.1f%% %13.1f%% %13.1f%% %13.1f%%\n",
			k, 100*r.RedditText[i], 100*r.RedditAll[i], 100*r.DarkText[i], 100*r.DarkAll[i])
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig. 5

// Figure5Report reproduces Fig. 5: precision-recall with and without the
// search-space reduction (the curve view of Table VI).
type Figure5Report struct {
	Table *Table6Report
}

// Figure5 reuses Table VI's curves.
func (l *Lab) Figure5() (*Figure5Report, error) {
	t6, err := l.Table6()
	if err != nil {
		return nil, err
	}
	return &Figure5Report{Table: t6}, nil
}

// String renders all six curves.
func (r *Figure5Report) String() string {
	var b strings.Builder
	b.WriteString("Figure 5 — precision and recall with and without search space reduction\n")
	b.WriteString(renderCurves(r.Table.Curves))
	return b.String()
}
