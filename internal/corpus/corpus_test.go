package corpus

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"darklight/internal/activity"
	"darklight/internal/forum"
	"darklight/internal/timeutil"
)

// makeAlias builds an alias with n messages of w words each, posted on
// distinct weekday hours.
func makeAlias(name string, n, w int) forum.Alias {
	a := forum.Alias{Name: name}
	day := time.Date(2017, 2, 1, 0, 0, 0, 0, time.UTC)
	hour := 8
	for i := 0; i < n; i++ {
		for timeutil.IsWeekend(day) {
			day = day.AddDate(0, 0, 1)
		}
		body := strings.TrimSpace(strings.Repeat("w"+string(rune('a'+i%20))+" ", w))
		a.Messages = append(a.Messages, forum.Message{
			ID: name + "-" + itoa(i), Author: name, Body: body,
			PostedAt: time.Date(day.Year(), day.Month(), day.Day(), hour, 0, 0, 0, time.UTC),
		})
		hour++
		if hour > 20 {
			hour = 8
			day = day.AddDate(0, 0, 1)
		}
	}
	return a
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return itoa(i/10) + itoa(i%10)
}

func TestUsableTimestamps(t *testing.T) {
	a := makeAlias("x", 10, 5)
	// Add weekend posts; they must not count under exclusion.
	sat := time.Date(2017, 2, 4, 12, 0, 0, 0, time.UTC)
	a.Messages = append(a.Messages, forum.Message{ID: "sat", Author: "x", Body: "w", PostedAt: sat})
	if got := UsableTimestamps(&a, activity.Options{ExcludeWeekends: true}); got != 10 {
		t.Errorf("UsableTimestamps = %d, want 10", got)
	}
	if got := UsableTimestamps(&a, activity.Options{}); got != 11 {
		t.Errorf("without exclusion = %d, want 11", got)
	}
}

func TestRefineThresholds(t *testing.T) {
	d := forum.NewDataset("T", forum.PlatformReddit)
	d.Add(makeAlias("rich", 40, 50))    // 2000 words, 40 ts → passes
	d.Add(makeAlias("short", 40, 10))   // 400 words → fails words
	d.Add(makeAlias("sparse", 10, 200)) // 2000 words, 10 ts → fails ts
	out := Refine(d, RefineOptions{})
	if out.Len() != 1 || out.Aliases[0].Name != "rich" {
		t.Errorf("Refine kept %v", out.Names())
	}
}

func TestSplitAlterEgos(t *testing.T) {
	d := forum.NewDataset("T", forum.PlatformReddit)
	d.Add(makeAlias("prolific", 80, 50)) // 4000 words, 80 ts → splittable
	d.Add(makeAlias("modest", 40, 50))   // 2000 words → stays whole
	main, ae := SplitAlterEgos(d, AlterEgoOptions{Seed: 1})

	if main.Len() != 2 {
		t.Fatalf("main has %d aliases", main.Len())
	}
	if ae.Len() != 1 || ae.Aliases[0].Name != "prolific" {
		t.Fatalf("ae = %v", ae.Names())
	}
	if ae.Name != "AE_T" {
		t.Errorf("ae dataset name = %q", ae.Name)
	}

	orig, _ := main.Find("prolific")
	alter := ae.Aliases[0]
	// Disjoint message sets, evenly split.
	if len(orig.Messages)+len(alter.Messages) != 80 {
		t.Errorf("messages lost: %d + %d", len(orig.Messages), len(alter.Messages))
	}
	if diff := len(orig.Messages) - len(alter.Messages); diff < -1 || diff > 1 {
		t.Errorf("uneven split: %d vs %d", len(orig.Messages), len(alter.Messages))
	}
	seen := map[string]bool{}
	for _, m := range orig.Messages {
		seen[m.ID] = true
	}
	for _, m := range alter.Messages {
		if seen[m.ID] {
			t.Fatalf("message %s in both halves", m.ID)
		}
	}
	// The modest alias is untouched.
	modest, _ := main.Find("modest")
	if len(modest.Messages) != 40 {
		t.Error("non-splittable alias must keep all messages")
	}
}

func TestSplitDeterministic(t *testing.T) {
	build := func() (*forum.Dataset, *forum.Dataset) {
		d := forum.NewDataset("T", forum.PlatformReddit)
		d.Add(makeAlias("p", 80, 50))
		return SplitAlterEgos(d, AlterEgoOptions{Seed: 42})
	}
	m1, a1 := build()
	m2, a2 := build()
	if m1.Aliases[0].Messages[0].ID != m2.Aliases[0].Messages[0].ID ||
		a1.Aliases[0].Messages[0].ID != a2.Aliases[0].Messages[0].ID {
		t.Error("split must be deterministic in the seed")
	}
}

func TestDocumentLongestFirst(t *testing.T) {
	a := forum.Alias{Name: "x", Messages: []forum.Message{
		{ID: "short", Body: "one two three"},
		{ID: "long", Body: "a b c d e f g h i j"},
		{ID: "mid", Body: "p q r s t"},
	}}
	doc := Document(&a, 12, nil)
	words := strings.Fields(doc)
	if len(words) != 12 {
		t.Fatalf("doc has %d words, want 12", len(words))
	}
	// Longest message first, truncating in the mid one.
	if words[0] != "a" || words[10] != "p" {
		t.Errorf("order wrong: %v", words)
	}
	// Unlimited.
	if got := len(strings.Fields(Document(&a, -1, nil))); got != 18 {
		t.Errorf("unlimited doc = %d words", got)
	}
	// Original order untouched.
	if a.Messages[0].ID != "short" {
		t.Error("Document must not reorder the alias's messages")
	}
}

func TestDocumentLongestFirstTiesByID(t *testing.T) {
	a := forum.Alias{Messages: []forum.Message{
		{ID: "b", Body: "b1 b2"},
		{ID: "a", Body: "a1 a2"},
		{ID: "c", Body: "c1 c2 c3 c4"},
		{ID: "d", Body: "d1"},
	}}
	// Longest first, ties by ID.
	if got, want := Document(&a, 100, nil), "c1 c2 c3 c4\na1 a2\nb1 b2\nd1"; got != want {
		t.Errorf("Document = %q, want %q", got, want)
	}
}

// referenceDocument is Document as first written: a sorted copy of the
// messages, then strings.Fields and strings.Join for each.
func referenceDocument(a *forum.Alias, maxWords int) string {
	msgs := append([]forum.Message(nil), a.Messages...)
	sort.SliceStable(msgs, func(i, j int) bool {
		if wi, wj := msgs[i].WordCount(), msgs[j].WordCount(); wi != wj {
			return wi > wj
		}
		return msgs[i].ID < msgs[j].ID
	})
	var b strings.Builder
	words := 0
	for i := range msgs {
		if words >= maxWords {
			break
		}
		fields := strings.Fields(msgs[i].Body)
		take := min(len(fields), maxWords-words)
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(strings.Join(fields[:take], " "))
		words += take
	}
	return b.String()
}

// TestDocumentMatchesReference: on random aliases — Unicode and repeated
// spaces, empty and space-only bodies, repeated IDs and lengths — Document
// with one scratch reused across every call is the reference text byte for
// byte, and with its scratch grown it allocates the text and nothing else.
func TestDocumentMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	tokens := []string{"w", "word", "caf\u00e9", "\u65e5\u672c", "x\xffy", " ", "  ", "\t", "\n", "\u00a0", "\u3000"}
	var sc DocScratch
	for trial := 0; trial < 300; trial++ {
		a := forum.Alias{}
		for m := rng.Intn(12); m > 0; m-- {
			var body strings.Builder
			for k := rng.Intn(25); k > 0; k-- {
				body.WriteString(tokens[rng.Intn(len(tokens))])
			}
			a.Messages = append(a.Messages, forum.Message{ID: string(rune('a' + rng.Intn(4))), Body: body.String()})
		}
		for _, budget := range []int{1, 2, 7, 30, 1500} {
			if got, want := Document(&a, budget, &sc), referenceDocument(&a, budget); got != want {
				t.Fatalf("trial %d budget %d: Document = %q, want %q", trial, budget, got, want)
			}
		}
	}
	a := makeAlias("x", 40, 30)
	Document(&a, 1500, &sc)
	if allocs := testing.AllocsPerRun(20, func() { Document(&a, 1500, &sc) }); allocs != 1 {
		t.Errorf("Document with scratch made %v allocations, want 1 (the text)", allocs)
	}
}

func TestWordCountCDF(t *testing.T) {
	d := forum.NewDataset("T", forum.PlatformReddit)
	d.Add(makeAlias("a", 1, 10))  // 10 words
	d.Add(makeAlias("b", 1, 100)) // 100 words
	cdf := WordCountCDF(d, []int{5, 10, 50, 100})
	want := []float64{0, 0.5, 0.5, 1}
	for i := range want {
		if cdf[i] != want[i] {
			t.Errorf("cdf[%d] = %v, want %v", i, cdf[i], want[i])
		}
	}
	if got := WordCountCDF(forum.NewDataset("E", forum.PlatformReddit), []int{1}); got[0] != 0 {
		t.Error("empty dataset CDF must be zero")
	}
}
