package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestManifestRoundTrip writes a populated manifest and reads it back.
func TestManifestRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs_total", "runs").Inc()

	m := NewManifest("testtool")
	m.Config = map[string]any{"scale": 0.5}
	m.AddSeed("world", 42)
	m.AddSeed("split", 7)
	m.Datasets = append(m.Datasets, DatasetDigest{
		Name: "reddit", Aliases: 10, Messages: 100, SHA256: "abc",
	})
	m.Stages = []StageSummary{{Name: "polish", Count: 1, DurNS: 5, Items: 10}}
	m.Metrics = r.Snapshot()
	m.AddResult("tab1", "rendered table")

	if m.GoVersion == "" || m.CreatedUTC == "" {
		t.Fatal("NewManifest left version or timestamp empty")
	}

	path := filepath.Join(t.TempDir(), "run.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Tool != "testtool" || got.CreatedUTC != m.CreatedUTC {
		t.Errorf("tool/timestamp mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Seeds, m.Seeds) {
		t.Errorf("seeds: got %v, want %v", got.Seeds, m.Seeds)
	}
	if !reflect.DeepEqual(got.Datasets, m.Datasets) {
		t.Errorf("datasets: got %v, want %v", got.Datasets, m.Datasets)
	}
	if !reflect.DeepEqual(got.Stages, m.Stages) {
		t.Errorf("stages: got %v, want %v", got.Stages, m.Stages)
	}
	if len(got.Metrics) != 1 || got.Metrics[0].Name != "runs_total" || got.Metrics[0].Series[0].Value != 1 {
		t.Errorf("metrics did not survive the round trip: %+v", got.Metrics)
	}
	if got.Results["tab1"] != "rendered table" {
		t.Errorf("results: %v", got.Results)
	}
}
