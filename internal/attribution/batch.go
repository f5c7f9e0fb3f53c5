package attribution

import (
	"context"
	"fmt"
)

// Batch processing (§IV-J): when the known set exceeds what memory can
// hold at once, divide it into batches of at most B aliases, run the
// k-attribution step per batch, pool the per-batch candidates, and repeat
// until the surviving candidate set fits in one batch; then run the final
// two-stage match against that set.
//
// The paper validates B = 100 on the baseline-comparison dataset and gets
// precision 91% / recall 81% at the same global threshold (0.4190).

// BatchMatcher applies the iterative batched procedure.
type BatchMatcher struct {
	known []Subject
	opts  Options
	// B is the maximum candidate set the hardware handles at once.
	B int
}

// NewBatchMatcher wraps a known set with a batch budget B. B must be at
// least the stage-1 k, or a candidate pool could never shrink below one
// batch.
func NewBatchMatcher(known []Subject, opts Options, b int) (*BatchMatcher, error) {
	opts = opts.WithDefaults()
	if b < opts.K {
		return nil, fmt.Errorf("attribution: batch size %d smaller than k=%d", b, opts.K)
	}
	return &BatchMatcher{known: known, opts: opts, B: b}, nil
}

// stageOpts are the per-batch reduction options: single stage, no
// threshold decision.
func (bm *BatchMatcher) stageOpts() Options {
	o := bm.opts
	o.TwoStage = false
	return o
}

// MatchAll runs the batched procedure for every unknown.
//
// Memory discipline: only one batch is ever indexed at a time — that is
// the point of §IV-J — so the first reduction round builds each batch's
// matcher once and ranks *all* unknowns against it before moving to the
// next batch. Later rounds (needed only when ceil(N/B)·k still exceeds B)
// operate on per-unknown pools.
func (bm *BatchMatcher) MatchAll(ctx context.Context, unknowns []Subject) ([]MatchResult, error) {
	results := make([]MatchResult, len(unknowns))

	// Round 1: shared batches over the full known set.
	pools := make([][]Subject, len(unknowns))
	for start := 0; start < len(bm.known); start += bm.B {
		if err := ctx.Err(); err != nil {
			return results, err
		}
		end := start + bm.B
		if end > len(bm.known) {
			end = len(bm.known)
		}
		batch := bm.known[start:end]
		m, err := NewMatcher(batch, bm.stageOpts())
		if err != nil {
			return results, err
		}
		for i := range unknowns {
			for _, c := range m.Rank(&unknowns[i], bm.opts.K) {
				if s := findSubject(batch, c.Name); s != nil {
					pools[i] = append(pools[i], *s)
				}
			}
		}
	}

	// Later rounds + final match, per unknown.
	for i := range unknowns {
		if err := ctx.Err(); err != nil {
			return results, err
		}
		res, err := bm.matchPool(&unknowns[i], pools[i])
		if err != nil {
			return results, err
		}
		results[i] = res
	}
	return results, nil
}

// Match runs the batched procedure for a single unknown.
func (bm *BatchMatcher) Match(ctx context.Context, unknown *Subject) (MatchResult, error) {
	res, err := bm.MatchAll(ctx, []Subject{*unknown})
	if err != nil {
		return MatchResult{Unknown: unknown.Name}, err
	}
	return res[0], nil
}

// matchPool shrinks one unknown's candidate pool below B, then runs the
// final two-stage match against it.
func (bm *BatchMatcher) matchPool(unknown *Subject, pool []Subject) (MatchResult, error) {
	for len(pool) > bm.B {
		var survivors []Subject
		for start := 0; start < len(pool); start += bm.B {
			end := start + bm.B
			if end > len(pool) {
				end = len(pool)
			}
			batch := pool[start:end]
			m, err := NewMatcher(batch, bm.stageOpts())
			if err != nil {
				return MatchResult{Unknown: unknown.Name}, err
			}
			for _, c := range m.Rank(unknown, bm.opts.K) {
				if s := findSubject(batch, c.Name); s != nil {
					survivors = append(survivors, *s)
				}
			}
		}
		if len(survivors) >= len(pool) {
			pool = survivors
			break // cannot shrink further; fall through to final step
		}
		pool = survivors
	}
	final, err := NewMatcher(pool, bm.opts)
	if err != nil {
		return MatchResult{Unknown: unknown.Name}, err
	}
	return final.Match(unknown), nil
}

func findSubject(batch []Subject, name string) *Subject {
	for i := range batch {
		if batch[i].Name == name {
			return &batch[i]
		}
	}
	return nil
}
