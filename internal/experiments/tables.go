package experiments

import (
	"fmt"
	"sort"
	"strings"

	"darklight/internal/attribution"
	"darklight/internal/eval"
	"darklight/internal/features"
	"darklight/internal/forum"
	"darklight/internal/synth"
)

// ---------------------------------------------------------------- Table I

// Table1Row is one topic of the Reddit composition table.
type Table1Row struct {
	Topic            string
	Subreddits       int
	SubscriptionsPct float64 // share of (user, subreddit) posting pairs
	MessagesPct      float64
	PopularSubreddit string
	PopularMessages  int
}

// Table1Report reproduces Table I: the Reddit dataset's composition by
// topic.
type Table1Report struct {
	Rows          []Table1Row
	TotalMessages int
	TotalUsers    int
}

// Table1 computes the composition of the polished Reddit dataset.
func (l *Lab) Table1() *Table1Report {
	type agg struct {
		boards   map[string]int // board → messages
		userSubs int            // (user, board) pairs
		messages int
	}
	byTopic := make(map[string]*agg)
	total := 0
	totalSubs := 0
	for i := range l.RawReddit.Aliases {
		a := &l.RawReddit.Aliases[i]
		seen := make(map[string]bool)
		for j := range a.Messages {
			board := a.Messages[j].Board
			topic := synth.TopicOfBoard(board)
			if topic == "" {
				continue
			}
			ag := byTopic[topic]
			if ag == nil {
				ag = &agg{boards: make(map[string]int)}
				byTopic[topic] = ag
			}
			ag.boards[board]++
			ag.messages++
			total++
			if !seen[board] {
				seen[board] = true
				ag.userSubs++
				totalSubs++
			}
		}
	}
	rep := &Table1Report{TotalMessages: total, TotalUsers: l.RawReddit.Len()}
	for _, topic := range synth.Topics {
		ag := byTopic[topic]
		if ag == nil {
			continue
		}
		row := Table1Row{Topic: topic, Subreddits: len(ag.boards)}
		if total > 0 {
			row.MessagesPct = 100 * float64(ag.messages) / float64(total)
		}
		if totalSubs > 0 {
			row.SubscriptionsPct = 100 * float64(ag.userSubs) / float64(totalSubs)
		}
		for b, c := range ag.boards {
			if c > row.PopularMessages || (c == row.PopularMessages && b < row.PopularSubreddit) {
				row.PopularSubreddit, row.PopularMessages = b, c
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// String renders the table in the paper's row format.
func (r *Table1Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — Reddit dataset composition by topic (%d users, %d topic-labelled messages)\n",
		r.TotalUsers, r.TotalMessages)
	fmt.Fprintf(&b, "%-20s %12s %15s %12s %20s %12s\n",
		"Topic", "subreddits(#)", "subscripts(%)", "messages(%)", "popular subreddit", "messages(#)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-20s %12d %14.1f%% %11.1f%% %20s %12d\n",
			row.Topic, row.Subreddits, row.SubscriptionsPct, row.MessagesPct,
			"r/"+row.PopularSubreddit, row.PopularMessages)
	}
	return b.String()
}

// --------------------------------------------------------------- Table II

// Table2Report reproduces Table II: the feature budgets of the two stages
// and the vocabulary sizes actually realised on the Reddit corpus.
type Table2Report struct {
	ReductionConfigured features.Config
	FinalConfigured     features.Config
	// Realised sizes on the lab's Reddit corpus under the reduction config.
	RealisedWordGrams int
	RealisedCharGrams int
	FreqFeatures      int
	ActivityDims      int
}

// Table2 reports the feature-space shape.
func (l *Lab) Table2() (*Table2Report, error) {
	m, err := l.RedditMatcher()
	if err != nil {
		return nil, err
	}
	v := m.Vocabulary()
	return &Table2Report{
		ReductionConfigured: features.ReductionConfig(),
		FinalConfigured:     features.FinalConfig(),
		RealisedWordGrams:   v.NumWordGrams(),
		RealisedCharGrams:   v.NumCharGrams(),
		FreqFeatures:        features.NumFreqFeatures,
		ActivityDims:        24,
	}, nil
}

// String renders the table.
func (r *Table2Report) String() string {
	var b strings.Builder
	b.WriteString("Table II — features used for space reduction and final classification\n")
	fmt.Fprintf(&b, "%-34s %16s %10s %10s\n", "Type", "Space Reduction", "Final", "realised")
	fmt.Fprintf(&b, "%-34s %16d %10d %10d\n", "Word n-grams 1-3",
		r.ReductionConfigured.MaxWordGrams, r.FinalConfigured.MaxWordGrams, r.RealisedWordGrams)
	fmt.Fprintf(&b, "%-34s %16d %10d %10d\n", "Char n-grams 1-5",
		r.ReductionConfigured.MaxCharGrams, r.FinalConfigured.MaxCharGrams, r.RealisedCharGrams)
	fmt.Fprintf(&b, "%-34s %16d %10d %10d\n", "Freq. punct/digit/special", 42, 42, r.FreqFeatures)
	fmt.Fprintf(&b, "%-34s %16d %10d %10d\n", "Daily activity profile", 24, 24, r.ActivityDims)
	return b.String()
}

// -------------------------------------------------------------- Table III

// Table3Row is one word-budget row of the k-attribution accuracy table.
type Table3Row struct {
	Words     int
	K1Text    float64
	K1All     float64
	K10Text   float64
	K10All    float64
	Unknowns  int
	KnownSize int
}

// Table3Report reproduces Table III: k-attribution accuracy at different
// text sizes, with text-only vs text+activity features.
type Table3Report struct {
	Rows []Table3Row
}

// Table3WordBudgets are the word budgets of the paper's sweep.
var Table3WordBudgets = []int{400, 600, 800, 1000, 1100, 1200, 1300, 1400, 1500, 1600, 1700}

// Table3 runs the word-budget sweep. For each budget one matcher serves
// both feature sets (text-only vs all) — the block-decomposed scorer
// re-weights at query time.
func (l *Lab) Table3() (*Table3Report, error) {
	rep := &Table3Report{}
	for _, words := range Table3WordBudgets {
		row, err := l.table3Row(words)
		if err != nil {
			return nil, fmt.Errorf("experiments: table3 at %d words: %w", words, err)
		}
		rep.Rows = append(rep.Rows, *row)
	}
	return rep, nil
}

func (l *Lab) table3Row(words int) (*Table3Row, error) {
	opts := l.SubjectOpts()
	opts.WordBudget = words
	knownAll, err := attribution.BuildSubjects(l.Reddit, opts)
	if err != nil {
		return nil, err
	}
	aeAll, err := attribution.BuildSubjects(l.AEReddit, opts)
	if err != nil {
		return nil, err
	}
	known, unknown := sampleKnownUnknown(knownAll, aeAll,
		l.Cfg.Table3Known, l.Cfg.Table3Unknowns, int64(l.Cfg.Seed)+101)

	mopts := l.MatcherOpts()
	mopts.TwoStage = false // the sweep measures stage-1 accuracy only
	m, err := attribution.NewMatcher(known, mopts)
	if err != nil {
		return nil, err
	}
	w := mopts
	textW := attribution.Weights{Freq: w.FreqWeight, Activity: 0}
	allW := attribution.Weights{Freq: w.FreqWeight, Activity: w.ActivityWeight}

	row := &Table3Row{Words: words, Unknowns: len(unknown), KnownSize: len(known)}
	textRanks, allRanks := rankPair(m, unknown, textW, allW)
	row.K1Text = eval.AccuracyAtK(textRanks, eval.SameName, 1)
	row.K1All = eval.AccuracyAtK(allRanks, eval.SameName, 1)
	row.K10Text = eval.AccuracyAtK(textRanks, eval.SameName, 10)
	row.K10All = eval.AccuracyAtK(allRanks, eval.SameName, 10)
	return row, nil
}

func rankingOf(unknown string, scored []attribution.Scored) eval.Ranking {
	r := eval.Ranking{Unknown: unknown}
	for _, s := range scored {
		r.Candidates = append(r.Candidates, s.Name)
		r.Scores = append(r.Scores, s.Score)
	}
	return r
}

// String renders the table in the paper's format.
func (r *Table3Report) String() string {
	var b strings.Builder
	b.WriteString("Table III — k-attribution accuracy at different numbers of words\n")
	fmt.Fprintf(&b, "%10s %12s %12s %12s %12s\n", "# of words", "K=1 (text)", "K=1 (all)", "K=10 (text)", "K=10 (all)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10d %11.1f%% %11.1f%% %11.1f%% %11.1f%%\n",
			row.Words, 100*row.K1Text, 100*row.K1All, 100*row.K10Text, 100*row.K10All)
	}
	return b.String()
}

// -------------------------------------------------------------- Table IV

// Table4Report reproduces Table IV: the six datasets' final sizes.
type Table4Report struct {
	Rows []Table4Row
	// CollectedReddit/TMG/DM are the pre-refinement alias counts, for the
	// retention-rate comparison with the paper.
	CollectedReddit, CollectedTMG, CollectedDM int
}

// Table4Row is one dataset's alias count.
type Table4Row struct {
	Name    string
	Aliases int
}

// Table4 reports the refined dataset sizes.
func (l *Lab) Table4() *Table4Report {
	return &Table4Report{
		Rows: []Table4Row{
			{"Reddit", l.Reddit.Len()},
			{"AE_Reddit", l.AEReddit.Len()},
			{"TMG", l.TMG.Len()},
			{"AE_TMG", l.AETMG.Len()},
			{"DM", l.DM.Len()},
			{"AE_DM", l.AEDM.Len()},
		},
		CollectedReddit: l.RawReddit.Len(),
		CollectedTMG:    l.RawTMG.Len(),
		CollectedDM:     l.RawDM.Len(),
	}
}

// String renders the table.
func (r *Table4Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table IV — datasets final composition (collected: reddit %d, tmg %d, dm %d)\n",
		r.CollectedReddit, r.CollectedTMG, r.CollectedDM)
	fmt.Fprintf(&b, "%-12s %10s\n", "Name", "(#)Aliases")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %10d\n", row.Name, row.Aliases)
	}
	return b.String()
}

// --------------------------------------------------------------- Table V

// Table5Row is one dataset's operating point.
type Table5Row struct {
	Forum     string
	Threshold float64
	Precision float64
	Recall    float64
}

// Table5Report reproduces Table V: per-forum thresholds tuned for 80%
// recall, then the single global threshold applied everywhere.
type Table5Report struct {
	PerForum []Table5Row
	Global   []Table5Row
	// GlobalThreshold is the W1-derived threshold applied in the second
	// half (the paper's 0.4190).
	GlobalThreshold float64
	// DarkAccuracy is the §IV-G 10-attribution accuracy on the merged
	// DarkWeb datasets (paper: 98.4%).
	DarkAccuracy float64
}

// Table5 computes both halves of the table. The global threshold is
// derived from the W1 split exactly as §IV-E does, rather than hard-coding
// the paper's 0.4190.
func (l *Lab) Table5() (*Table5Report, error) {
	curves, err := l.aeCurves()
	if err != nil {
		return nil, err
	}
	rep := &Table5Report{}

	// Global threshold := W1's threshold at 80% recall.
	if p, ok := curves.w1.ThresholdForRecall(0.80); ok {
		rep.GlobalThreshold = p.Threshold
	} else {
		rep.GlobalThreshold = attribution.DefaultThreshold
	}

	entries := []struct {
		name  string
		curve eval.Curve
	}{
		{"Reddit_A", curves.w1},
		{"Reddit_B", curves.w2},
		{"DM", curves.dm},
		{"TMG", curves.tmg},
	}
	for _, e := range entries {
		if p, ok := e.curve.ThresholdForRecall(0.80); ok {
			rep.PerForum = append(rep.PerForum, Table5Row{e.name, p.Threshold, p.Precision, p.Recall})
		} else {
			best := e.curve.BestF1()
			rep.PerForum = append(rep.PerForum, Table5Row{e.name, best.Threshold, best.Precision, best.Recall})
		}
		prec, rec := e.curve.AtThreshold(rep.GlobalThreshold)
		rep.Global = append(rep.Global, Table5Row{e.name, rep.GlobalThreshold, prec, rec})
	}

	rep.DarkAccuracy, err = l.darkTenAttribution()
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// darkTenAttribution is §IV-G's accuracy: 10-attribution of AE_DarkWeb
// against the merged DarkWeb dataset.
func (l *Lab) darkTenAttribution() (float64, error) {
	m, err := l.DarkMatcher()
	if err != nil {
		return 0, err
	}
	_, ae := l.DarkWeb()
	unknowns, err := attribution.BuildSubjects(ae, l.SubjectOpts())
	if err != nil {
		return 0, err
	}
	var ranks []eval.Ranking
	for i := range unknowns {
		ranks = append(ranks, rankingOf(unknowns[i].Name, m.Rank(&unknowns[i], 10)))
	}
	return eval.AccuracyAtK(ranks, eval.SameName, 10), nil
}

// String renders the table.
func (r *Table5Report) String() string {
	var b strings.Builder
	b.WriteString("Table V — precision-recall with different thresholds\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %8s\n", "Forum", "threshold", "Precision", "Recall")
	for _, row := range r.PerForum {
		fmt.Fprintf(&b, "%-10s %10.4f %9.1f%% %7.1f%%\n", row.Forum, row.Threshold, 100*row.Precision, 100*row.Recall)
	}
	b.WriteString(strings.Repeat("-", 42) + "\n")
	for _, row := range r.Global {
		fmt.Fprintf(&b, "%-10s %10.4f %9.1f%% %7.1f%%\n", row.Forum, row.Threshold, 100*row.Precision, 100*row.Recall)
	}
	fmt.Fprintf(&b, "(§IV-G) DarkWeb 10-attribution accuracy: %.1f%%\n", 100*r.DarkAccuracy)
	return b.String()
}

// --------------------------------------------------------------- Table VI

// Table6Row is one forum's AUC pair.
type Table6Row struct {
	Forum            string
	AUCWithReduction float64
	AUCWithout       float64
}

// Table6Report reproduces Table VI: AUC with and without the search-space
// reduction step.
type Table6Report struct {
	Rows []Table6Row
	// Curves for Fig. 5 rendering, keyed "<forum>/with" and
	// "<forum>/without".
	Curves map[string]eval.Curve
}

// Table6 computes PR curves with the full two-stage pipeline (reduction +
// rescoring) and without it (a single cosine pass over all candidates,
// best candidate wins), on all three forums.
func (l *Lab) Table6() (*Table6Report, error) {
	curves, err := l.aeCurves()
	if err != nil {
		return nil, err
	}
	rep := &Table6Report{Curves: make(map[string]eval.Curve)}

	type entry struct {
		name      string
		with      eval.Curve
		knownSet  *forum.Dataset
		unknowns  []attribution.Subject
		matcher   *attribution.Matcher
		relevant  int
		usePooled bool
	}
	redditM, err := l.RedditMatcher()
	if err != nil {
		return nil, err
	}
	darkEntries := []entry{}
	// Reddit row: reuse the pooled W1+W2 predictions for "with".
	redditWith := eval.PRCurve(append(append([]eval.Prediction{}, curves.w1Preds...), curves.w2Preds...),
		eval.SameName, len(curves.w1Preds)+len(curves.w2Preds))
	redditUnknowns := append(append([]attribution.Subject{}, curves.w1Subjects...), curves.w2Subjects...)
	darkEntries = append(darkEntries, entry{name: "Reddit", with: redditWith, matcher: redditM, unknowns: redditUnknowns, relevant: len(redditUnknowns)})

	darkEntries = append(darkEntries, entry{name: "TMG", with: curves.tmg, matcher: curves.tmgMatcher, unknowns: curves.tmgSubjects, relevant: len(curves.tmgSubjects)})
	darkEntries = append(darkEntries, entry{name: "DM", with: curves.dm, matcher: curves.dmMatcher, unknowns: curves.dmSubjects, relevant: len(curves.dmSubjects)})

	for _, e := range darkEntries {
		withoutPreds := make([]eval.Prediction, 0, len(e.unknowns))
		for i := range e.unknowns {
			top := e.matcher.Rank(&e.unknowns[i], 1)
			if len(top) > 0 {
				withoutPreds = append(withoutPreds, eval.Prediction{Unknown: e.unknowns[i].Name, Candidate: top[0].Name, Score: top[0].Score})
			}
		}
		without := eval.PRCurve(withoutPreds, eval.SameName, e.relevant)
		rep.Rows = append(rep.Rows, Table6Row{Forum: e.name, AUCWithReduction: e.with.AUC(), AUCWithout: without.AUC()})
		rep.Curves[e.name+"/with"] = e.with
		rep.Curves[e.name+"/without"] = without
	}
	sort.Slice(rep.Rows, func(i, j int) bool { return rep.Rows[i].Forum < rep.Rows[j].Forum })
	return rep, nil
}

// forumMatcherAndAE builds a matcher over a forum's refined dataset and the
// subjects of its alter-ego set.
func (l *Lab) forumMatcherAndAE(known, ae *forum.Dataset) (*attribution.Matcher, []attribution.Subject, error) {
	ks, err := attribution.BuildSubjects(known, l.SubjectOpts())
	if err != nil {
		return nil, nil, err
	}
	m, err := attribution.NewMatcher(ks, l.MatcherOpts())
	if err != nil {
		return nil, nil, err
	}
	aes, err := attribution.BuildSubjects(ae, l.SubjectOpts())
	if err != nil {
		return nil, nil, err
	}
	return m, aes, nil
}

// String renders the table.
func (r *Table6Report) String() string {
	var b strings.Builder
	b.WriteString("Table VI — AUC values\n")
	fmt.Fprintf(&b, "%-10s %20s %24s\n", "Forum", "AUC with reduction", "AUC without reduction")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %20.2f %24.2f\n", row.Forum, row.AUCWithReduction, row.AUCWithout)
	}
	return b.String()
}

// ----------------------------------------------------- shared AE matching

// aeCurveSet caches the expensive alter-ego matching runs shared by
// Fig. 2, Table V, Table VI and Fig. 5.
type aeCurveSet struct {
	w1, w2, tmg, dm         eval.Curve
	w1Preds, w2Preds        []eval.Prediction
	tmgPreds, dmPreds       []eval.Prediction
	w1Subjects, w2Subjects  []attribution.Subject
	tmgMatcher, dmMatcher   *attribution.Matcher
	tmgSubjects, dmSubjects []attribution.Subject
}

var errNoAE = fmt.Errorf("experiments: alter-ego set is empty")

func (l *Lab) aeCurves() (*aeCurveSet, error) {
	if l.curves != nil {
		return l.curves, nil
	}
	m, err := l.RedditMatcher()
	if err != nil {
		return nil, err
	}
	all, err := attribution.BuildSubjects(l.AEReddit, l.SubjectOpts())
	if err != nil {
		return nil, err
	}
	if len(all) == 0 {
		return nil, errNoAE
	}
	sample := sampleSubjects(all, l.Cfg.MaxUnknowns*2, int64(l.Cfg.Seed)+303)
	half := len(sample) / 2
	w1, w2 := sample[:half], sample[half:]

	ctx := l.Context()
	res1, err := m.MatchAll(ctx, w1)
	if err != nil {
		return nil, err
	}
	res2, err := m.MatchAll(ctx, w2)
	if err != nil {
		return nil, err
	}
	set := &aeCurveSet{
		w1Preds: predictionsOf(res1), w2Preds: predictionsOf(res2),
		w1Subjects: w1, w2Subjects: w2,
	}
	set.w1 = eval.PRCurve(set.w1Preds, eval.SameName, len(w1))
	set.w2 = eval.PRCurve(set.w2Preds, eval.SameName, len(w2))

	tmgM, tmgAE, err := l.forumMatcherAndAE(l.TMG, l.AETMG)
	if err != nil {
		return nil, err
	}
	resT, err := tmgM.MatchAll(ctx, tmgAE)
	if err != nil {
		return nil, err
	}
	set.tmgPreds = predictionsOf(resT)
	set.tmg = eval.PRCurve(set.tmgPreds, eval.SameName, len(tmgAE))
	set.tmgMatcher, set.tmgSubjects = tmgM, tmgAE

	dmM, dmAE, err := l.forumMatcherAndAE(l.DM, l.AEDM)
	if err != nil {
		return nil, err
	}
	resD, err := dmM.MatchAll(ctx, dmAE)
	if err != nil {
		return nil, err
	}
	set.dmPreds = predictionsOf(resD)
	set.dm = eval.PRCurve(set.dmPreds, eval.SameName, len(dmAE))
	set.dmMatcher, set.dmSubjects = dmM, dmAE

	l.curves = set
	return set, nil
}
