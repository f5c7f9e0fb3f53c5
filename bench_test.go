package darklight

// The benchmark harness regenerates every table and figure of the paper
// (one benchmark per artefact) and adds the ablation benches DESIGN.md §5
// calls out. Accuracy/AUC shapes are attached to each benchmark via
// b.ReportMetric, so `go test -bench=. -benchmem` doubles as a compact
// reproduction report.
//
// Benchmarks share one lazily-built lab sized for a single-CPU box; the
// heavy benches take more than a second per op, so the default -benchtime
// runs them once. Use cmd/experiments for the full-scale sweeps.

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"darklight/internal/anonymize"
	"darklight/internal/attribution"
	"darklight/internal/baselines"
	"darklight/internal/eval"
	"darklight/internal/experiments"
	"darklight/internal/forum"
)

var (
	labOnce sync.Once
	lab     *experiments.Lab
	labErr  error
)

func benchLab(b *testing.B) *experiments.Lab {
	b.Helper()
	labOnce.Do(func() {
		cfg := experiments.DefaultLabConfig()
		cfg.Scale = 0.03
		cfg.MaxUnknowns = 60
		cfg.Table3Known = 250
		cfg.Table3Unknowns = 40
		cfg.BaselineKnown = 250
		cfg.BaselineUnknowns = 30
		cfg.BatchUnknowns = 10
		lab, labErr = experiments.NewLab(cfg)
	})
	if labErr != nil {
		b.Fatal(labErr)
	}
	return lab
}

// ---------------------------------------------------------------- tables

func BenchmarkTable1RedditComposition(b *testing.B) {
	l := benchLab(b)
	b.ResetTimer()
	var drugs float64
	for i := 0; i < b.N; i++ {
		rep := l.Table1()
		for _, row := range rep.Rows {
			if row.Topic == "Drugs" {
				drugs = row.MessagesPct
			}
		}
	}
	b.ReportMetric(drugs, "drugs-msg-%")
}

func BenchmarkTable2FeatureExtraction(b *testing.B) {
	l := benchLab(b)
	b.ResetTimer()
	var words, chars int
	for i := 0; i < b.N; i++ {
		l.ResetCaches()
		rep, err := l.Table2()
		if err != nil {
			b.Fatal(err)
		}
		words, chars = rep.RealisedWordGrams, rep.RealisedCharGrams
	}
	b.ReportMetric(float64(words), "word-grams")
	b.ReportMetric(float64(chars), "char-grams")
}

func BenchmarkTable3KAttribution(b *testing.B) {
	l := benchLab(b)
	b.ResetTimer()
	var rep *experiments.Table3Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = l.Table3()
		if err != nil {
			b.Fatal(err)
		}
	}
	first, last := rep.Rows[0], rep.Rows[len(rep.Rows)-1]
	b.ReportMetric(100*first.K1All, "acc@1-400w-%")
	b.ReportMetric(100*last.K1All, "acc@1-1700w-%")
	b.ReportMetric(100*last.K10All, "acc@10-1700w-%")
}

func BenchmarkTable4Refinement(b *testing.B) {
	l := benchLab(b)
	b.ResetTimer()
	var reddit int
	for i := 0; i < b.N; i++ {
		rep := l.Table4()
		reddit = rep.Rows[0].Aliases
	}
	b.ReportMetric(float64(reddit), "reddit-aliases")
}

func BenchmarkTable5Thresholds(b *testing.B) {
	l := benchLab(b)
	b.ResetTimer()
	var rep *experiments.Table5Report
	for i := 0; i < b.N; i++ {
		l.ResetCaches()
		var err error
		rep, err = l.Table5()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.GlobalThreshold, "global-threshold")
	b.ReportMetric(100*rep.DarkAccuracy, "dark-acc@10-%")
}

func BenchmarkTable6ReductionAUC(b *testing.B) {
	l := benchLab(b)
	b.ResetTimer()
	var rep *experiments.Table6Report
	for i := 0; i < b.N; i++ {
		l.ResetCaches()
		var err error
		rep, err = l.Table6()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range rep.Rows {
		if row.Forum == "Reddit" {
			b.ReportMetric(row.AUCWithReduction, "reddit-auc-with")
			b.ReportMetric(row.AUCWithout, "reddit-auc-without")
		}
	}
}

// --------------------------------------------------------------- figures

func BenchmarkFigure1WordCDF(b *testing.B) {
	l := benchLab(b)
	b.ResetTimer()
	var atRefineThreshold float64
	for i := 0; i < b.N; i++ {
		rep := l.Figure1()
		for j, t := range rep.Thresholds {
			if t == 1500 {
				atRefineThreshold = rep.TMGCDF[j]
			}
		}
	}
	b.ReportMetric(100*atRefineThreshold, "tmg-cdf@1500w-%")
}

func BenchmarkFigure2ThresholdPR(b *testing.B) {
	l := benchLab(b)
	b.ResetTimer()
	var rep *experiments.Figure2Report
	for i := 0; i < b.N; i++ {
		l.ResetCaches()
		var err error
		rep, err = l.Figure2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Threshold, "threshold")
	b.ReportMetric(100*rep.W1Precision, "w1-precision-%")
	b.ReportMetric(100*rep.W1Recall, "w1-recall-%")
	b.ReportMetric(rep.W2.AUC(), "w2-auc")
}

func BenchmarkFigure3Baselines(b *testing.B) {
	l := benchLab(b)
	b.ResetTimer()
	var rep *experiments.Figure3Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = l.Figure3()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Standard.AUC(), "auc-standard")
	b.ReportMetric(rep.Koppel.AUC(), "auc-koppel")
	b.ReportMetric(rep.Ours.AUC(), "auc-ours")
	b.ReportMetric(rep.KoppelTime.Seconds()/rep.OursTime.Seconds(), "koppel/ours-time")
}

func BenchmarkFigure4ActivityImpact(b *testing.B) {
	l := benchLab(b)
	b.ResetTimer()
	var rep *experiments.Figure4Report
	for i := 0; i < b.N; i++ {
		l.ResetCaches()
		var err error
		rep, err = l.Figure4()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*rep.RedditText[0], "reddit-k1-text-%")
	b.ReportMetric(100*rep.RedditAll[0], "reddit-k1-all-%")
}

func BenchmarkFigure5ReductionPR(b *testing.B) {
	l := benchLab(b)
	b.ResetTimer()
	var rep *experiments.Figure5Report
	for i := 0; i < b.N; i++ {
		l.ResetCaches()
		var err error
		rep, err = l.Figure5()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rep.Table.Curves)), "curves")
}

// ------------------------------------------------- §V and §IV-J results

func BenchmarkCrossForumTMGDM(b *testing.B) {
	l := benchLab(b)
	b.ResetTimer()
	var rep *experiments.CrossForumReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = l.TMGvsDM()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rep.Pairs)), "matches")
	b.ReportMetric(float64(rep.TruePositives), "true-positives")
}

func BenchmarkDeanonymizeRedditDarkWeb(b *testing.B) {
	l := benchLab(b)
	b.ResetTimer()
	var rep *experiments.CrossForumReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = l.RedditVsDarkWeb()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rep.Pairs)), "matches")
	b.ReportMetric(float64(rep.Counts[eval.VerdictTrue]), "true-verdicts")
}

func BenchmarkBatchProcessing(b *testing.B) {
	l := benchLab(b)
	b.ResetTimer()
	var rep *experiments.BatchReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = l.BatchProcedure()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*rep.Precision, "batched-precision-%")
	b.ReportMetric(100*rep.Recall, "batched-recall-%")
}

// ------------------------------------------------------------- ablations

// benchSubjects returns a small matched known/probe pair for ablations.
func benchSubjects(b *testing.B) (known, probes []attribution.Subject) {
	l := benchLab(b)
	pipe := NewPipeline()
	main, err := pipe.Subjects(l.Reddit)
	if err != nil {
		b.Fatal(err)
	}
	ae, err := pipe.Subjects(l.AEReddit)
	if err != nil {
		b.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range main {
		names[s.Name] = true
	}
	for _, s := range ae {
		if names[s.Name] && len(probes) < 40 {
			probes = append(probes, s)
		}
	}
	all := main
	if len(main) > 300 {
		main = main[:300]
	}
	// Re-attach any probe mate the truncation dropped.
	seen := map[string]bool{}
	for _, s := range main {
		seen[s.Name] = true
	}
	for _, p := range probes {
		if seen[p.Name] {
			continue
		}
		for _, s := range all {
			if s.Name == p.Name {
				main = append(main, s)
				seen[p.Name] = true
				break
			}
		}
	}
	return main, probes
}

func ablationAccuracy(b *testing.B, opts attribution.Options, known, probes []attribution.Subject) float64 {
	b.Helper()
	m, err := attribution.NewMatcher(known, opts)
	if err != nil {
		b.Fatal(err)
	}
	results, err := m.MatchAll(context.Background(), probes)
	if err != nil {
		b.Fatal(err)
	}
	hits := 0
	for _, r := range results {
		if r.Best.Name == r.Unknown {
			hits++
		}
	}
	return float64(hits) / float64(len(probes))
}

// BenchmarkAblationRescoring compares the two-stage TF-IDF recomputation
// against reusing stage-1 scores (DESIGN.md ablation 1).
func BenchmarkAblationRescoring(b *testing.B) {
	known, probes := benchSubjects(b)
	b.ResetTimer()
	var two, one float64
	for i := 0; i < b.N; i++ {
		opts := attribution.DefaultOptions()
		two = ablationAccuracy(b, opts, known, probes)
		opts.TwoStage = false
		one = ablationAccuracy(b, opts, known, probes)
	}
	b.ReportMetric(100*two, "acc-two-stage-%")
	b.ReportMetric(100*one, "acc-one-stage-%")
}

// BenchmarkAblationActivityWeight sweeps the activity block norm
// (DESIGN.md ablation 2).
func BenchmarkAblationActivityWeight(b *testing.B) {
	known, probes := benchSubjects(b)
	b.ResetTimer()
	weights := []float64{0, 0.35, 0.7, 1.4}
	accs := make([]float64, len(weights))
	for i := 0; i < b.N; i++ {
		for wi, w := range weights {
			opts := attribution.DefaultOptions()
			opts.TwoStage = false
			opts.ActivityWeight = w
			opts.UseActivity = w > 0
			accs[wi] = ablationAccuracy(b, opts, known, probes)
		}
	}
	b.ReportMetric(100*accs[0], "acc-w0-%")
	b.ReportMetric(100*accs[2], "acc-w0.7-%")
	b.ReportMetric(100*accs[3], "acc-w1.4-%")
}

// BenchmarkAblationVocabSize compares the Table II budgets against a
// 10×-smaller vocabulary (DESIGN.md ablation 3).
func BenchmarkAblationVocabSize(b *testing.B) {
	known, probes := benchSubjects(b)
	b.ResetTimer()
	var full, small float64
	for i := 0; i < b.N; i++ {
		opts := attribution.DefaultOptions()
		opts.TwoStage = false
		full = ablationAccuracy(b, opts, known, probes)
		opts.Reduction.MaxWordGrams = 6000
		opts.Reduction.MaxCharGrams = 3000
		small = ablationAccuracy(b, opts, known, probes)
	}
	b.ReportMetric(100*full, "acc-60k/30k-%")
	b.ReportMetric(100*small, "acc-6k/3k-%")
}

// BenchmarkAblationLemma toggles lemmatisation (DESIGN.md ablation 4).
func BenchmarkAblationLemma(b *testing.B) {
	known, probes := benchSubjects(b)
	b.ResetTimer()
	var with, without float64
	for i := 0; i < b.N; i++ {
		opts := attribution.DefaultOptions()
		opts.TwoStage = false
		with = ablationAccuracy(b, opts, known, probes)
		// Both stages read one extraction, so the final config follows.
		opts.Reduction.Lemmatize, opts.Final.Lemmatize = false, false
		without = ablationAccuracy(b, opts, known, probes)
	}
	b.ReportMetric(100*with, "acc-lemma-%")
	b.ReportMetric(100*without, "acc-no-lemma-%")
}

// BenchmarkAblationMessageOrder compares the paper's longest-first message
// selection with random selection at the same word budget (DESIGN.md
// ablation 5).
func BenchmarkAblationMessageOrder(b *testing.B) {
	l := benchLab(b)
	b.ResetTimer()
	buildRandom := func(d *forum.Dataset) []attribution.Subject {
		subs := make([]attribution.Subject, 0, d.Len())
		r := rand.New(rand.NewSource(1))
		for i := range d.Aliases {
			a := d.Aliases[i]
			shuffled := append([]forum.Message(nil), a.Messages...)
			r.Shuffle(len(shuffled), func(x, y int) { shuffled[x], shuffled[y] = shuffled[y], shuffled[x] })
			var sb strings.Builder
			words := 0
			for _, m := range shuffled {
				if words >= attribution.DefaultWordBudget {
					break
				}
				sb.WriteString(m.Body)
				sb.WriteByte('\n')
				words += m.WordCount()
			}
			subs = append(subs, attribution.Subject{Name: a.Name, Text: sb.String()})
		}
		return subs
	}
	var longest, random float64
	for i := 0; i < b.N; i++ {
		opts := attribution.DefaultOptions()
		opts.TwoStage = false
		opts.UseActivity = false
		known, probes := benchSubjects(b)
		longest = ablationAccuracy(b, opts, known, probes)

		rKnown := buildRandom(l.Reddit)
		rAE := buildRandom(l.AEReddit)
		names := map[string]bool{}
		for _, s := range rKnown {
			names[s.Name] = true
		}
		var rProbes []attribution.Subject
		for _, s := range rAE {
			if names[s.Name] && len(rProbes) < 40 {
				rProbes = append(rProbes, s)
			}
		}
		random = ablationAccuracy(b, opts, rKnown, rProbes)
	}
	b.ReportMetric(100*longest, "acc-longest-first-%")
	b.ReportMetric(100*random, "acc-random-order-%")
}

// BenchmarkAblationBatchSize sweeps §IV-J's B (DESIGN.md ablation 6).
func BenchmarkAblationBatchSize(b *testing.B) {
	known, probes := benchSubjects(b)
	if len(probes) > 10 {
		probes = probes[:10]
	}
	b.ResetTimer()
	sizes := []int{50, 100, 200}
	accs := make([]float64, len(sizes))
	for i := 0; i < b.N; i++ {
		for si, bs := range sizes {
			bm, err := attribution.NewBatchMatcher(known, attribution.DefaultOptions(), bs)
			if err != nil {
				b.Fatal(err)
			}
			results, err := bm.MatchAll(context.Background(), probes)
			if err != nil {
				b.Fatal(err)
			}
			hits := 0
			for _, r := range results {
				if r.Best.Name == r.Unknown {
					hits++
				}
			}
			accs[si] = float64(hits) / float64(len(probes))
		}
	}
	b.ReportMetric(100*accs[0], "acc-B50-%")
	b.ReportMetric(100*accs[1], "acc-B100-%")
	b.ReportMetric(100*accs[2], "acc-B200-%")
}

// ------------------------------------------- matcher hot-path regression

// The three benchmarks below time the two-stage matcher hot path in
// process. They are unrecorded micro-benchmarks for use while working;
// the recorded figures are BENCHMARK.json's (bash bench/run.sh).

// BenchmarkRank measures stage-1 candidate ranking (§IV-C) in isolation:
// one unknown scored against the full known set, top-k selected.
func BenchmarkRank(b *testing.B) {
	known, probes := benchSubjects(b)
	m, err := attribution.NewMatcher(known, attribution.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Rank(&probes[i%len(probes)], 10)
	}
}

// BenchmarkRescore measures stage 2 (§IV-E) through the public Rescore: the
// unknown's extraction, the TF-IDF rebuild over the candidate subset and
// cosine rescoring. Candidate documents come from the matcher's cache, which
// the warm pass below fills; BenchmarkRescoreKernel in internal/attribution
// times the kernel without the extraction.
func BenchmarkRescore(b *testing.B) {
	known, probes := benchSubjects(b)
	m, err := attribution.NewMatcher(known, attribution.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	cands := make([][]attribution.Scored, len(probes))
	for i := range probes {
		cands[i] = m.Rank(&probes[i], 10)
	}
	// One warm pass so ops measure the steady-state per-query cost; the
	// first touch of each candidate populates the matcher's lazy document
	// cache, which is construction cost, not per-query cost.
	for i := range probes {
		m.Rescore(&probes[i], cands[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(probes)
		m.Rescore(&probes[j], cands[j])
	}
}

// BenchmarkMatchAll measures the full §IV-I algorithm over every probe at
// lab scale (0.03, default options). The warm pass populates the lazy
// per-subject caches so every measured op sees the steady state a
// long-running matcher runs in.
func BenchmarkMatchAll(b *testing.B) {
	known, probes := benchSubjects(b)
	m, err := attribution.NewMatcher(known, attribution.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.MatchAll(context.Background(), probes); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.MatchAll(context.Background(), probes); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------- micro-benches

// BenchmarkOurMethod times one full two-stage match (§IV-I), the "ours"
// row of the §IV-F wall-clock ordering beside BenchmarkStandardBaseline
// and BenchmarkKoppelBaseline.
func BenchmarkOurMethod(b *testing.B) {
	known, probes := benchSubjects(b)
	m, err := attribution.NewMatcher(known, attribution.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(&probes[i%len(probes)])
	}
}

func BenchmarkStandardBaseline(b *testing.B) {
	known, probes := benchSubjects(b)
	std := baselines.NewStandard(known, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		std.Match(&probes[i%len(probes)])
	}
}

func BenchmarkKoppelBaseline(b *testing.B) {
	known, probes := benchSubjects(b)
	cfg := baselines.DefaultKoppelConfig()
	cfg.Iterations = 10 // a tenth of the published setting, still ~10× a cosine pass
	k, err := baselines.NewKoppel(known, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.VoteAll(context.Background(), probes[:5]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCountermeasure measures the §VI defence: how much the
// anonymiser (internal/anonymize) degrades this repository's own attack.
func BenchmarkCountermeasure(b *testing.B) {
	l := benchLab(b)
	known, probes := benchSubjects(b)
	_ = l
	b.ResetTimer()
	var raw, protected float64
	for i := 0; i < b.N; i++ {
		opts := attribution.DefaultOptions()
		raw = ablationAccuracy(b, opts, known, probes)

		anon := anonymize.New(anonymize.DefaultOptions())
		shielded := make([]attribution.Subject, len(probes))
		for j, p := range probes {
			shielded[j] = attribution.Subject{
				Name:     p.Name,
				Text:     anon.Text(p.Text),
				Activity: nil, // rescheduling destroys the profile (see anonymize tests)
			}
		}
		protected = ablationAccuracy(b, opts, known, shielded)
	}
	b.ReportMetric(100*raw, "attack-acc-raw-%")
	b.ReportMetric(100*protected, "attack-acc-anonymised-%")
}
