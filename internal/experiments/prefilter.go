package experiments

import (
	"fmt"
	"strings"

	"darklight/internal/attribution"
	"darklight/internal/eval"
)

// PrefilterReport is the stage-1 pre-filter operating-point sweep: the
// measured recall/work trade of the pruned and LSH modes on the
// community-structured world they are specified against. It rides along
// in run.json so every run records what the approximate mode's recall
// actually was, next to the exactness the pruned rows pin.
type PrefilterReport struct {
	Table *eval.PrefilterTable
}

// String renders the operating-point table with a reading note.
func (r *PrefilterReport) String() string {
	var b strings.Builder
	b.WriteString(r.Table.String())
	b.WriteString("(pruned rows are lossless by construction — recall 1 at any knob; ")
	b.WriteString("work is the fraction of the known set exactly scored. ")
	b.WriteString("Wall-clock cost per mode is measured separately by the full-path benchmark, bench/run.sh.)\n")
	return b.String()
}

// Prefilter runs the default operating-point sweep (eval.DefaultSweepPoints)
// on the community world, scaled by the lab's worker bound only through
// the matcher build — the sweep itself is sequential and deterministic.
func (l *Lab) Prefilter() (*PrefilterReport, error) {
	known, queries := eval.PrefilterWorld(eval.PrefilterWorldConfig{Seed: int64(l.Cfg.Seed)})
	opts := attribution.DefaultOptions()
	opts.Workers = l.Cfg.Workers
	m, err := attribution.NewMatcherContext(l.Context(), known, opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: prefilter world matcher: %w", err)
	}
	table, err := eval.SweepPrefilter(m, queries, 10, eval.DefaultSweepPoints())
	if err != nil {
		return nil, fmt.Errorf("experiments: prefilter sweep: %w", err)
	}
	return &PrefilterReport{Table: table}, nil
}
