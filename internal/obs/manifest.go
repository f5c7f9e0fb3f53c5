package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Manifest is the per-run audit artifact (run.json): everything needed to
// say what a run computed and whether another machine reproduced it. The
// deterministic fields — config, seeds, dataset digests, metric snapshot,
// results — must match bit-for-bit across reruns of the same inputs;
// CreatedUTC and the stage durations are the only run-specific values.
type Manifest struct {
	// Tool names the command that produced the run.
	Tool string `json:"tool"`
	// GoVersion is the toolchain the run was built with.
	GoVersion string `json:"go_version"`
	// CreatedUTC stamps the run (RFC 3339, UTC).
	CreatedUTC string `json:"created_utc"`
	// Config echoes the run's full configuration struct.
	Config any `json:"config,omitempty"`
	// Seeds lists every RNG seed the run consumed.
	Seeds map[string]int64 `json:"seeds,omitempty"`
	// Datasets digests every input/derived dataset.
	Datasets []DatasetDigest `json:"datasets,omitempty"`
	// Stages summarises the span forest by stage name.
	Stages []StageSummary `json:"stages,omitempty"`
	// Metrics is the final registry snapshot (count-derived values only).
	Metrics []FamilySnapshot `json:"metrics,omitempty"`
	// Results carries the rendered final numbers, keyed by experiment id.
	Results map[string]string `json:"results,omitempty"`
}

// NewManifest starts a manifest for the named tool, stamped now.
func NewManifest(tool string) *Manifest {
	return &Manifest{
		Tool:      tool,
		GoVersion: runtime.Version(),
		// The manifest records when the run happened; the timestamp never
		// feeds back into pipeline output (internal/obs is the sanctioned
		// wallclock call-site set).
		CreatedUTC: time.Now().UTC().Format(time.RFC3339),
	}
}

// DatasetDigest pins one dataset: its shape and a SHA-256 over its
// canonical JSONL serialisation, so "same corpus" is checkable across
// machines.
type DatasetDigest struct {
	Name     string `json:"name"`
	Aliases  int    `json:"aliases"`
	Messages int    `json:"messages"`
	SHA256   string `json:"sha256"`
}

// AddSeed records one named seed.
func (m *Manifest) AddSeed(name string, seed int64) {
	if m.Seeds == nil {
		m.Seeds = make(map[string]int64)
	}
	m.Seeds[name] = seed
}

// AddResult records one experiment's rendered output.
func (m *Manifest) AddResult(id, rendered string) {
	if m.Results == nil {
		m.Results = make(map[string]string)
	}
	m.Results[id] = rendered
}

// WriteFile writes the manifest as indented JSON.
func (m *Manifest) WriteFile(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal manifest: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("obs: write manifest: %w", err)
	}
	return nil
}
