// Package corpus implements the dataset refinement and ground-truth
// generation of §IV-D of the paper: filtering aliases by word and timestamp
// budgets, splitting prolific users into (original, alter-ego) pairs, and
// selecting each alias's analysis text longest-message-first up to a word
// budget.
package corpus

import (
	"cmp"
	"math/rand"
	"slices"
	"strings"

	"darklight/internal/activity"
	"darklight/internal/forum"
	"darklight/internal/timeutil"
)

// Paper thresholds (§IV-D).
const (
	// MinWords is the per-alias word budget for the refined datasets.
	MinWords = 1500
	// MinTimestamps is the usable-timestamp minimum (activity profile).
	MinTimestamps = 30
	// AlterEgoMinWords is the threshold to qualify as an alter-ego source.
	AlterEgoMinWords = 3000
	// AlterEgoMinTimestamps is the timestamp threshold for splitting.
	AlterEgoMinTimestamps = 60
)

// RefineOptions configure Refine.
type RefineOptions struct {
	// MinWords defaults to MinWords when 0.
	MinWords int
	// MinTimestamps defaults to MinTimestamps when 0.
	MinTimestamps int
	// Activity controls which timestamps count as usable (weekends and
	// holidays excluded, forum-local times aligned to UTC).
	Activity activity.Options
}

func (o RefineOptions) withDefaults() RefineOptions {
	if o.MinWords == 0 {
		o.MinWords = MinWords
	}
	if o.MinTimestamps == 0 {
		o.MinTimestamps = MinTimestamps
	}
	return o
}

// UsableTimestamps counts the alias's timestamps that survive weekend and
// holiday exclusion after UTC alignment.
func UsableTimestamps(a *forum.Alias, opts activity.Options) int {
	n := 0
	for i := range a.Messages {
		utc := timeutil.AlignUTC(a.Messages[i].PostedAt, opts.ForumUTCOffsetMinutes)
		if opts.ExcludeWeekends && timeutil.IsWeekend(utc) {
			continue
		}
		if opts.Holidays.Contains(utc) {
			continue
		}
		n++
	}
	return n
}

// Refine returns the aliases with at least MinWords words and
// MinTimestamps usable timestamps — the paper's refined datasets
// (Table IV: Reddit 11,679; TMG 422; DM 178).
func Refine(d *forum.Dataset, opts RefineOptions) *forum.Dataset {
	opts = opts.withDefaults()
	return d.Filter(func(a *forum.Alias) bool {
		return a.TotalWords() >= opts.MinWords &&
			UsableTimestamps(a, opts.Activity) >= opts.MinTimestamps
	})
}

// AlterEgoOptions configure SplitAlterEgos.
type AlterEgoOptions struct {
	// MinWords defaults to AlterEgoMinWords.
	MinWords int
	// MinTimestamps defaults to AlterEgoMinTimestamps.
	MinTimestamps int
	// Activity as in RefineOptions.
	Activity activity.Options
	// Seed drives the random split.
	Seed int64
}

func (o AlterEgoOptions) withDefaults() AlterEgoOptions {
	if o.MinWords == 0 {
		o.MinWords = AlterEgoMinWords
	}
	if o.MinTimestamps == 0 {
		o.MinTimestamps = AlterEgoMinTimestamps
	}
	return o
}

// SplitAlterEgos builds the evaluation ground truth of §IV-D. For every
// alias with enough words and timestamps, its messages are randomly divided
// into two halves: the original keeps one half, the alter-ego (same name,
// separate dataset named "AE_<name>") gets the other. Message sets are
// disjoint; timestamps are evenly divided because the messages carrying
// them are split alternately after shuffling. Aliases below the threshold
// stay in the main dataset untouched and have no alter-ego.
//
// An alter-ego pair is "the same person" by construction: a predicted match
// is correct iff the two alias names are equal.
func SplitAlterEgos(d *forum.Dataset, opts AlterEgoOptions) (main, ae *forum.Dataset) {
	opts = opts.withDefaults()
	r := rand.New(rand.NewSource(opts.Seed))
	main = forum.NewDataset(d.Name, d.Platform)
	ae = forum.NewDataset("AE_"+d.Name, d.Platform)
	for i := range d.Aliases {
		a := d.Aliases[i]
		if a.TotalWords() < opts.MinWords || UsableTimestamps(&a, opts.Activity) < opts.MinTimestamps {
			main.Aliases = append(main.Aliases, a)
			continue
		}
		half1, half2 := splitMessages(r, a.Messages)
		orig := forum.Alias{Name: a.Name, Platform: a.Platform, Messages: half1}
		alter := forum.Alias{Name: a.Name, Platform: a.Platform, Messages: half2}
		main.Aliases = append(main.Aliases, orig)
		ae.Aliases = append(ae.Aliases, alter)
	}
	return main, ae
}

// splitMessages shuffles and deals messages alternately, so both message
// counts and timestamp counts split evenly at random.
func splitMessages(r *rand.Rand, msgs []forum.Message) (a, b []forum.Message) {
	idx := r.Perm(len(msgs))
	a = make([]forum.Message, 0, (len(msgs)+1)/2)
	b = make([]forum.Message, 0, len(msgs)/2)
	for k, j := range idx {
		if k%2 == 0 {
			a = append(a, msgs[j])
		} else {
			b = append(b, msgs[j])
		}
	}
	return a, b
}

// Document returns the alias's analysis text: messages concatenated
// longest-first until the word budget is reached, the final message
// truncated at the budget (§IV-D: "we sort the messages by length and
// select the messages from the longest to the shortest until we reach the
// limit of 1,500 words"). Messages of equal length go in ID order, then in
// message order; each contributes its words one space apart, a newline
// between messages. maxWords <= 0 returns all text. sc is working memory
// kept from one call to the next (nil: Document makes its own); with it,
// the text is all Document allocates.
func Document(a *forum.Alias, maxWords int, sc *DocScratch) string {
	if maxWords <= 0 {
		return a.Text()
	}
	if sc == nil {
		sc = new(DocScratch)
	}
	sc.order = sc.order[:0]
	for i := range a.Messages {
		sc.order = append(sc.order, ranked{words: a.Messages[i].WordCount(), at: i})
	}
	slices.SortFunc(sc.order, func(x, y ranked) int {
		if x.words != y.words {
			return cmp.Compare(y.words, x.words)
		}
		if c := strings.Compare(a.Messages[x.at].ID, a.Messages[y.at].ID); c != 0 {
			return c
		}
		return cmp.Compare(x.at, y.at)
	})
	text, words := sc.text[:0], 0
	for _, r := range sc.order {
		if words >= maxWords {
			break
		}
		if len(text) > 0 {
			text = append(text, '\n')
		}
		take := min(r.words, maxWords-words)
		text = a.Messages[r.at].AppendWords(text, take)
		words += take
	}
	sc.text = text
	return string(text)
}

// DocScratch is Document's working memory: the zero value is ready, and one
// serves one goroutine.
type DocScratch struct {
	order []ranked
	text  []byte
}

// ranked is a message's place in the longest-first order.
type ranked struct{ words, at int }

// WordCountCDF returns the empirical CDF of total words per alias evaluated
// at the given thresholds — the data behind Fig. 1 of the paper.
func WordCountCDF(d *forum.Dataset, thresholds []int) []float64 {
	if d.Len() == 0 {
		return make([]float64, len(thresholds))
	}
	counts := make([]int, d.Len())
	for i := range d.Aliases {
		counts[i] = d.Aliases[i].TotalWords()
	}
	out := make([]float64, len(thresholds))
	for ti, t := range thresholds {
		n := 0
		for _, c := range counts {
			if c <= t {
				n++
			}
		}
		out[ti] = float64(n) / float64(len(counts))
	}
	return out
}
