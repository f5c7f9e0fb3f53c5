package attribution

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"darklight/internal/prefilter"
)

// communityWorld generates the world the LSH operating point is specified
// against. Unlike the adversarially homogeneous worlds of makeAuthors (where
// every author shares one vocabulary and gram-set Jaccard barely separates
// authors), it has 6 communities with distinct vocabularies: 12 known
// authors and 3 queries each, 240 words a document. Every document draws
// 92% of its words from its community's private vocabulary and 8% from a
// small shared function-word pool, so in-community gram Jaccard lands in
// the 0.45-0.60 band where the 32x3 banding catches nearly every true
// candidate, while cross-community Jaccard stays under ~0.1.
func communityWorld(seed int64) (known, queries []Subject) {
	const (
		communities  = 6
		perCommunity = 12
		queriesPer   = 3
		wordsPerDoc  = 240
		vocabPer     = 60
	)
	// Each community's words get a distinct character shape, so char 1-5
	// grams separate communities as cleanly as word grams do.
	tags := []string{"zarfel", "quomik", "vexdun", "lyrosh", "hubrent", "jipkal"}
	shared := []string{"the", "and", "for", "with", "that", "this", "from", "have", "will", "about"}
	rng := rand.New(rand.NewSource(seed))
	vocab := make([][]string, communities)
	for c := range vocab {
		vocab[c] = make([]string, vocabPer)
		for j := range vocab[c] {
			vocab[c][j] = fmt.Sprintf("%s%c%d", tags[c], 'a'+byte(j%26), j)
		}
	}
	doc := func(c int) string {
		var b strings.Builder
		for w := 0; w < wordsPerDoc; w++ {
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
	for c := 0; c < communities; c++ {
		for a := 0; a < perCommunity; a++ {
			known = append(known, Subject{Name: fmt.Sprintf("c%02d-author%02d", c, a), Text: doc(c)})
		}
		for q := 0; q < queriesPer; q++ {
			queries = append(queries, Subject{Name: fmt.Sprintf("c%02d-query%02d", c, q), Text: doc(c)})
		}
	}
	return known, queries
}

// TestDefaultPointsOnCommunityWorld pins what the two pre-filter modes do
// at their one operating point on the world LSH is built for: LSH recovers
// at least 95% of the exact top-10 while exactly scoring at most half of
// the known set, and the pruned scan returns the exact top-10 bit for bit
// while scoring fewer than all known subjects.
func TestDefaultPointsOnCommunityWorld(t *testing.T) {
	const k = 10
	for _, seed := range []int64{7, 1} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			known, queries := communityWorld(seed)
			opts := DefaultOptions()
			opts.Workers = 2
			m, err := NewMatcher(known, opts)
			if err != nil {
				t.Fatal(err)
			}
			var recall float64
			var lshScored, prunedScored int
			for qi := range queries {
				exact, _ := m.RankDetailed(&queries[qi], MatchOptions{K: k, Mode: prefilter.ModeExact})
				truth := make(map[string]bool, len(exact))
				for _, s := range exact {
					truth[s.Name] = true
				}
				lsh, st := m.RankDetailed(&queries[qi], MatchOptions{K: k, Mode: prefilter.ModeLSH})
				lshScored += st.Scored
				hits := 0
				for _, s := range lsh {
					if truth[s.Name] {
						hits++
					}
				}
				recall += float64(hits) / float64(len(exact))

				pruned, st := m.RankDetailed(&queries[qi], MatchOptions{K: k, Mode: prefilter.ModePruned})
				prunedScored += st.Scored
				if len(pruned) != len(exact) {
					t.Fatalf("query %d: pruned returned %d entries, exact %d", qi, len(pruned), len(exact))
				}
				for j := range exact {
					if pruned[j].Name != exact[j].Name || math.Float64bits(pruned[j].Score) != math.Float64bits(exact[j].Score) {
						t.Fatalf("query %d rank %d: pruned %+v, exact %+v", qi, j, pruned[j], exact[j])
					}
				}
			}
			all := len(queries) * len(known)
			recall /= float64(len(queries))
			if recall < 0.95 {
				t.Errorf("LSH recall@%d = %.3f, want >= 0.95", k, recall)
			}
			if work := float64(lshScored) / float64(all); work > 0.5 {
				t.Errorf("LSH scored %.2f of the known set, want <= 0.5", work)
			}
			if prunedScored >= all {
				t.Errorf("pruned scored %d of %d query-subject pairs: no pruning happened", prunedScored, all)
			}
			t.Logf("LSH recall@%d %.3f, scored %.3f; pruned scored %.3f", k, recall,
				float64(lshScored)/float64(all), float64(prunedScored)/float64(all))
		})
	}
}
