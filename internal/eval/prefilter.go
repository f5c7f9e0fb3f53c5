package eval

// Operating-point evaluation for the stage-1 candidate pre-filters
// (internal/prefilter). The pruned mode is lossless by construction, so
// its rows exist to show the work saved; the LSH mode trades recall for
// candidates, and this harness is where that trade is MEASURED — the
// matcher never assumes a recall number that did not come out of a sweep
// like this one.
//
// Everything here is deterministic (seeded generator, count-based work
// metrics, no durations), so the table can be pinned by tests and emitted
// into run manifests. Wall-clock cost lives in the full-path benchmark
// (BENCHMARK.json attribution.rank_{exact,pruned,lsh}_ms), not here: a
// manifest must not change because the machine was busy.

import (
	"fmt"
	"math/rand"
	"strings"

	"darklight/internal/attribution"
	"darklight/internal/prefilter"
)

// PrefilterPoint is one pre-filter operating point to evaluate: a mode
// plus its knobs (zero knobs mean the mode's defaults).
type PrefilterPoint struct {
	// Mode is "exact", "pruned", or "lsh".
	Mode string
	// Slack / TailShare configure the pruned mode.
	Slack     float64
	TailShare float64
	// Bands / Rows configure the LSH mode.
	Bands int
	Rows  int
}

// Label renders the point compactly ("pruned slack=1e-03 tail=0.05",
// "lsh 32x3").
func (p PrefilterPoint) Label() string {
	switch p.Mode {
	case "lsh":
		lp := prefilter.LSHParams{Bands: p.Bands, Rows: p.Rows}.WithDefaults()
		return fmt.Sprintf("lsh %dx%d", lp.Bands, lp.Rows)
	case "pruned":
		pp := prefilter.PrunedParams{Slack: p.Slack, TailShare: p.TailShare}.WithDefaults()
		return fmt.Sprintf("pruned slack=%.0e tail=%.2f", pp.Slack, pp.TailShare)
	default:
		return p.Mode
	}
}

// PrefilterRow is one evaluated operating point.
type PrefilterRow struct {
	Point PrefilterPoint
	// Recall is the mean recall-of-true-top-k: per query, the fraction of
	// the exact top-k names the point's top-k also returned. Pruned rows
	// are 1 by construction (and tests pin that).
	Recall float64
	// Candidates is the mean number of subjects exactly scored per query.
	Candidates float64
	// Work is Candidates divided by the known-set size — the fraction of
	// the exact scan's scoring work this point performs. The wall-clock
	// speedup this buys is measured by the benchmark suite.
	Work float64
}

// PrefilterTable is the result of one sweep.
type PrefilterTable struct {
	// Known is the known-set size, Queries the query count, K the top-k
	// depth the recall is measured at.
	Known   int
	Queries int
	K       int
	Rows    []PrefilterRow
}

// String renders the operating-point table.
func (t *PrefilterTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Pre-filter operating points (N=%d known, %d queries, recall of true top-%d)\n",
		t.Known, t.Queries, t.K)
	fmt.Fprintf(&b, "%-28s %8s %12s %8s\n", "point", "recall", "candidates", "work")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-28s %8.3f %12.1f %7.1f%%\n",
			r.Point.Label(), r.Recall, r.Candidates, 100*r.Work)
	}
	return b.String()
}

// DefaultSweepPoints is the standard grid: the pruned default and its
// neighbours (tighter and looser bounds), and the LSH default 32x3 with
// the banding neighbours that bracket it on the recall/work curve.
func DefaultSweepPoints() []PrefilterPoint {
	return []PrefilterPoint{
		{Mode: "pruned", Slack: 1e-12, TailShare: -1},
		{Mode: "pruned"}, // defaults
		{Mode: "pruned", Slack: 1e-2, TailShare: 0.2},
		{Mode: "lsh", Bands: 8, Rows: 4},
		{Mode: "lsh", Bands: 16, Rows: 3},
		{Mode: "lsh"}, // default 32x3
		{Mode: "lsh", Bands: 32, Rows: 2},
		{Mode: "lsh", Bands: 64, Rows: 2},
	}
}

// SweepPrefilter evaluates each operating point against the exact top-k
// over the same matcher and queries. The exact ranking is computed once
// per query; every point then reruns the query in its mode and is scored
// on how much of the true top-k it recovered and how many subjects it
// exactly scored.
func SweepPrefilter(m *attribution.Matcher, queries []attribution.Subject, k int, points []PrefilterPoint) (*PrefilterTable, error) {
	if k <= 0 {
		return nil, fmt.Errorf("eval: sweep needs k > 0, got %d", k)
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("eval: sweep needs at least one query")
	}
	// Exact truth, once per query.
	truth := make([]map[string]bool, len(queries))
	known := 0
	for qi := range queries {
		exact, st := m.RankDetailed(&queries[qi], attribution.MatchOptions{K: k, Mode: prefilter.ModeExact})
		known = st.Candidates + st.Pruned
		truth[qi] = make(map[string]bool, len(exact))
		for _, s := range exact {
			truth[qi][s.Name] = true
		}
	}
	t := &PrefilterTable{Known: known, Queries: len(queries), K: k}
	for _, p := range points {
		mode, err := prefilter.ParseMode(p.Mode)
		if err != nil {
			return nil, fmt.Errorf("eval: sweep point %+v: %w", p, err)
		}
		o := attribution.MatchOptions{K: k, Mode: mode}
		switch mode {
		case prefilter.ModePruned:
			o.Pruned = &prefilter.PrunedParams{Slack: p.Slack, TailShare: p.TailShare}
		case prefilter.ModeLSH:
			o.LSH = &prefilter.LSHParams{Bands: p.Bands, Rows: p.Rows}
		}
		row := PrefilterRow{Point: p}
		for qi := range queries {
			got, st := m.RankDetailed(&queries[qi], o)
			hits := 0
			for _, s := range got {
				if truth[qi][s.Name] {
					hits++
				}
			}
			if len(truth[qi]) > 0 {
				row.Recall += float64(hits) / float64(len(truth[qi]))
			}
			row.Candidates += float64(st.Scored)
		}
		row.Recall /= float64(len(queries))
		row.Candidates /= float64(len(queries))
		if known > 0 {
			row.Work = row.Candidates / float64(known)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// PrefilterWorldConfig sizes the community-structured synthetic world the
// sweep runs on. Unlike the adversarially homogeneous alter-ego worlds
// (where every author shares one vocabulary and gram-set Jaccard barely
// separates authors), this world models the regime LSH is built for:
// communities with distinct vocabularies, so same-community documents
// share most of their grams and cross-community documents almost none.
type PrefilterWorldConfig struct {
	// Communities is the number of disjoint-vocabulary communities.
	Communities int
	// PerCommunity is the number of known authors in each community.
	PerCommunity int
	// QueriesPer is the number of query documents drawn per community.
	QueriesPer int
	// WordsPerDoc is the document length in words.
	WordsPerDoc int
	// Seed drives the generator.
	Seed int64
}

// WithDefaults fills zero fields with the standard sweep world: 6
// communities of 12 authors (72 known), 3 queries each.
func (c PrefilterWorldConfig) WithDefaults() PrefilterWorldConfig {
	if c.Communities == 0 {
		c.Communities = 6
	}
	if c.PerCommunity == 0 {
		c.PerCommunity = 12
	}
	if c.QueriesPer == 0 {
		c.QueriesPer = 3
	}
	if c.WordsPerDoc == 0 {
		c.WordsPerDoc = 240
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	return c
}

// communityTags give each community's words a distinct character shape so
// char 1-5 grams separate communities as cleanly as word grams do.
var communityTags = []string{
	"zarfel", "quomik", "vexdun", "lyrosh", "hubrent", "jipkal",
	"wombrey", "taxilon", "gredfum", "nysper", "okvalt", "drimsou",
}

// PrefilterWorld generates the community world: known subjects plus
// queries written in the same community voices. Every document draws 92%
// of its words from its community's private vocabulary and 8% from a
// small shared function-word pool, so in-community gram Jaccard lands in
// the 0.45-0.60 band where the default 32x3 LSH point catches nearly every
// true candidate, while cross-community Jaccard stays under ~0.1.
func PrefilterWorld(cfg PrefilterWorldConfig) (known, queries []attribution.Subject) {
	cfg = cfg.WithDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	shared := []string{"the", "and", "for", "with", "that", "this", "from", "have", "will", "about"}
	const vocabPer = 60
	vocab := make([][]string, cfg.Communities)
	for c := range vocab {
		tag := communityTags[c%len(communityTags)]
		words := make([]string, vocabPer)
		for j := range words {
			words[j] = fmt.Sprintf("%s%c%d", tag, 'a'+byte(j%26), j)
		}
		vocab[c] = words
	}
	doc := func(c int) string {
		var b strings.Builder
		for w := 0; w < cfg.WordsPerDoc; w++ {
			if w > 0 {
				b.WriteByte(' ')
			}
			if rng.Intn(100) < 8 {
				b.WriteString(shared[rng.Intn(len(shared))])
			} else {
				b.WriteString(vocab[c][rng.Intn(vocabPer)])
			}
		}
		return b.String()
	}
	for c := 0; c < cfg.Communities; c++ {
		for a := 0; a < cfg.PerCommunity; a++ {
			known = append(known, attribution.Subject{
				Name: fmt.Sprintf("c%02d-author%02d", c, a),
				Text: doc(c),
			})
		}
		for q := 0; q < cfg.QueriesPer; q++ {
			queries = append(queries, attribution.Subject{
				Name: fmt.Sprintf("c%02d-query%02d", c, q),
				Text: doc(c),
			})
		}
	}
	return known, queries
}
