package darklight

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

func testWorld(t *testing.T) *World {
	t.Helper()
	world, err := GenerateWorld(WorldConfig{Seed: 5, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	return world
}

func TestGenerateWorldDefaults(t *testing.T) {
	w, err := GenerateWorld(WorldConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if w.Reddit.Len() == 0 || w.TMG.Len() == 0 || w.DM.Len() == 0 {
		t.Error("default world has empty forums")
	}
	if w.Truth == nil {
		t.Error("ground truth missing")
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	world := testWorld(t)
	world.AlignUTC()
	pipe := NewPipeline()

	report := pipe.Polish(world.Reddit)
	if len(report.Steps) == 0 {
		t.Fatal("polish produced no report")
	}

	refined := pipe.Refine(world.Reddit)
	if refined.Len() == 0 || refined.Len() >= world.Reddit.Len() {
		t.Fatalf("refine kept %d of %d", refined.Len(), world.Reddit.Len())
	}

	main, ae := pipe.SplitAlterEgos(refined)
	if ae.Len() == 0 {
		t.Fatal("no alter-egos")
	}

	probes := ae
	if probes.Len() > 25 {
		trimmed := *probes
		trimmed.Aliases = trimmed.Aliases[:25]
		probes = &trimmed
	}
	matches, err := pipe.Link(context.Background(), main, probes)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != probes.Len() {
		t.Fatalf("matches = %d, probes = %d", len(matches), probes.Len())
	}
	correct := 0
	for _, m := range matches {
		if m.Unknown == m.Candidate {
			correct++
		}
	}
	if correct < len(matches)/2 {
		t.Errorf("alter-ego linking got %d of %d", correct, len(matches))
	}
}

func TestLinkDetailed(t *testing.T) {
	world := testWorld(t)
	pipe := NewPipeline()
	pipe.Polish(world.DM)
	refined := pipe.Refine(world.DM)
	if refined.Len() < 2 {
		t.Skip("tiny world produced too few refined DM aliases")
	}
	results, err := pipe.LinkDetailed(context.Background(), refined, refined)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if len(r.Candidates) == 0 {
			t.Fatal("no stage-1 candidates")
		}
		// Self-linking: an alias matched against a set containing itself
		// must find itself first with score ≈ 1.
		if r.Best.Name != r.Unknown {
			t.Errorf("%s best-matched %s", r.Unknown, r.Best.Name)
		}
	}
}

func TestJSONLFiles(t *testing.T) {
	world := testWorld(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "dm.jsonl")
	if err := SaveJSONL(path, world.DM); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil || info.Size() == 0 {
		t.Fatal("file not written")
	}
	got, err := LoadJSONL(path, "DM", PlatformDreamMarket)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalMessages() != world.DM.TotalMessages() {
		t.Errorf("roundtrip lost messages: %d vs %d", got.TotalMessages(), world.DM.TotalMessages())
	}
	if _, err := LoadJSONL(filepath.Join(dir, "missing.jsonl"), "x", PlatformReddit); err == nil {
		t.Error("missing file must error")
	}
}

func TestPaperConstants(t *testing.T) {
	if DefaultThreshold != 0.4190 {
		t.Errorf("DefaultThreshold = %v", DefaultThreshold)
	}
	if DefaultK != 10 || DefaultWordBudget != 1500 {
		t.Errorf("constants = %d / %d", DefaultK, DefaultWordBudget)
	}
}

func TestVerify(t *testing.T) {
	world := testWorld(t)
	pipe := NewPipeline()
	pipe.Polish(world.Reddit)
	refined := pipe.Refine(world.Reddit)
	if refined.Len() < 5 {
		t.Skip("too few refined aliases")
	}
	main, ae := pipe.SplitAlterEgos(refined)
	if ae.Len() == 0 {
		t.Skip("no alter-egos")
	}
	alter := ae.Aliases[0]
	self, err := main.Find(alter.Name)
	if err != nil {
		t.Fatal(err)
	}
	other := &main.Aliases[0]
	if other.Name == alter.Name {
		other = &main.Aliases[1]
	}

	same, err := pipe.Verify(main, alter, *self)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := pipe.Verify(main, alter, *other)
	if err != nil {
		t.Fatal(err)
	}
	if same.Score <= diff.Score {
		t.Errorf("same-author score %.3f must exceed different-author score %.3f", same.Score, diff.Score)
	}
	if same.Threshold != pipe.opts.Threshold {
		t.Error("threshold not echoed")
	}
}
