package baselines

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"darklight/internal/attribution"
)

// distinctSubjects builds n subjects, each with a private vocabulary so
// both baselines can separate them, plus a disjoint probe half per author.
func distinctSubjects(n, words int) (known, probes []attribution.Subject) {
	common := strings.Fields("the a of and to in for with on at it is was be this that")
	for i := 0; i < n; i++ {
		private := []string{
			fmt.Sprintf("qq%dzz", i), fmt.Sprintf("ww%dxx", i), fmt.Sprintf("ee%dcc", i),
		}
		gen := func(seed int64) string {
			r := rand.New(rand.NewSource(seed))
			var b strings.Builder
			for w := 0; w < words; w++ {
				if r.Float64() < 0.4 {
					b.WriteString(private[r.Intn(len(private))])
				} else {
					b.WriteString(common[r.Intn(len(common))])
				}
				b.WriteByte(' ')
			}
			return b.String()
		}
		name := fmt.Sprintf("user%02d", i)
		known = append(known, attribution.Subject{Name: name, Text: gen(int64(i)*3 + 1)})
		probes = append(probes, attribution.Subject{Name: name, Text: gen(int64(i)*3 + 2)})
	}
	return known, probes
}

func TestStandardSelfAttribution(t *testing.T) {
	known, probes := distinctSubjects(10, 250)
	std := NewStandard(known, 2)
	hits := 0
	for i := range probes {
		ranked := std.Match(&probes[i])
		if len(ranked) != len(known) {
			t.Fatalf("Match returned %d candidates", len(ranked))
		}
		if ranked[0].Name == probes[i].Name {
			hits++
		}
	}
	if hits < 8 {
		t.Errorf("standard baseline self-attribution hits = %d of 10", hits)
	}
}

func TestStandardPredictAligned(t *testing.T) {
	known, probes := distinctSubjects(6, 200)
	std := NewStandard(known, 2)
	preds, err := std.Predict(context.Background(), probes)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != len(probes) {
		t.Fatalf("preds = %d", len(preds))
	}
	for i := range preds {
		if preds[i].Unknown != probes[i].Name {
			t.Error("predictions must align with input order")
		}
		if preds[i].Score < -1e-9 || preds[i].Score > 1+1e-9 {
			t.Errorf("score %v out of range", preds[i].Score)
		}
	}
}

func TestCharFreeSpace4Grams(t *testing.T) {
	counts := charFreeSpace4Grams("ab cd ef")
	// Space-free text is "abcdef": grams abcd, bcde, cdef.
	if len(counts) != 3 {
		t.Fatalf("got %d grams: %v", len(counts), counts)
	}
	for _, g := range []string{"abcd", "bcde", "cdef"} {
		if counts[g] != 1 {
			t.Errorf("missing gram %q", g)
		}
	}
	if got := charFreeSpace4Grams("abc"); len(got) != 0 {
		t.Error("short text must produce no grams")
	}
}

func TestKoppelSelfAttribution(t *testing.T) {
	known, probes := distinctSubjects(8, 250)
	cfg := DefaultKoppelConfig()
	cfg.Iterations = 20 // keep the test fast; 100 in production
	cfg.Workers = 2
	k := newKoppel(t, known, cfg)
	preds, err := k.Predict(context.Background(), probes)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := range preds {
		if preds[i].Candidate == probes[i].Name {
			hits++
		}
		if preds[i].Score < 0 || preds[i].Score > 1 {
			t.Errorf("vote share %v out of range", preds[i].Score)
		}
	}
	if hits < 6 {
		t.Errorf("koppel self-attribution hits = %d of 8", hits)
	}
}

func TestKoppelVoteSharesSumToOne(t *testing.T) {
	known, probes := distinctSubjects(5, 200)
	cfg := DefaultKoppelConfig()
	cfg.Iterations = 10
	cfg.Workers = 1
	k := newKoppel(t, known, cfg)
	shares, err := k.VoteAll(context.Background(), probes[:1])
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range shares[0] {
		total += s
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("vote shares sum to %v (every iteration casts one vote)", total)
	}
}

func TestKoppelSubspaceDeterministic(t *testing.T) {
	known, _ := distinctSubjects(3, 100)
	cfg := DefaultKoppelConfig()
	cfg.Iterations = 5
	k1 := newKoppel(t, known, cfg)
	k2 := newKoppel(t, known, cfg)
	for it := 0; it < 5; it++ {
		for idx := uint32(0); idx < 2000; idx += 37 {
			if k1.inSubspace(it, idx) != k2.inSubspace(it, idx) {
				t.Fatal("subspace membership must be deterministic in the seed")
			}
		}
	}
	// Roughly 40% of features selected.
	in := 0
	const total = 5000
	for idx := uint32(0); idx < total; idx++ {
		if k1.inSubspace(0, idx) {
			in++
		}
	}
	frac := float64(in) / total
	if frac < 0.35 || frac > 0.45 {
		t.Errorf("subspace fraction = %v, want ≈0.40", frac)
	}
}

func TestKoppelMatchSortsCandidates(t *testing.T) {
	known, probes := distinctSubjects(4, 150)
	cfg := DefaultKoppelConfig()
	cfg.Iterations = 8
	k := newKoppel(t, known, cfg)
	ranked := k.Match(&probes[0])
	if len(ranked) != 4 {
		t.Fatalf("ranked %d", len(ranked))
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Score > ranked[i-1].Score {
			t.Error("candidates must be sorted by vote share")
		}
	}
}

func TestBaselinesCancelPromptly(t *testing.T) {
	known, probes := distinctSubjects(4, 150)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	std := NewStandard(known, 2)
	if _, err := std.Predict(ctx, probes); err == nil {
		t.Error("standard: cancelled context must error")
	}
	cfg := DefaultKoppelConfig()
	cfg.Iterations = 50
	k := newKoppel(t, known, cfg)
	if _, err := k.Predict(ctx, probes); err == nil {
		t.Error("koppel: cancelled context must error")
	}
}

// newKoppel is NewKoppel for subjects whose counters are known to fit.
func newKoppel(t *testing.T, known []attribution.Subject, cfg KoppelConfig) *Koppel {
	t.Helper()
	k, err := NewKoppel(known, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}
