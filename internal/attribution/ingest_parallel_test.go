package attribution

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"darklight/internal/activity"
	"darklight/internal/forum"
	"darklight/internal/prefilter"
)

// TestNewMatcherWorkerInvariance pins the sharded index build to the
// sequential one: for any worker count the matcher must hold bit-identical
// state — vocabulary, inverted index (posting order included: stage 1
// accumulates float32 dot products in posting order, so a reordering would
// change scores), dense blocks — and produce identical Match results.
func TestNewMatcherWorkerInvariance(t *testing.T) {
	authors := makeAuthors(t, 30, 400)
	known := make([]Subject, len(authors))
	probes := make([]Subject, len(authors))
	for i, a := range authors {
		known[i] = a.known
		probes[i] = a.probe
	}

	opts := testOptions()
	opts.Workers = 1
	seq, err := NewMatcher(known, opts)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 3, 8, 64} {
		opts.Workers = workers
		par, err := NewMatcher(known, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par.vocab, seq.vocab) {
			t.Errorf("Workers=%d: vocabulary diverges from sequential build", workers)
		}
		if !reflect.DeepEqual(par.postOff, seq.postOff) ||
			!reflect.DeepEqual(par.postSubj, seq.postSubj) ||
			!reflect.DeepEqual(par.postVal, seq.postVal) {
			t.Errorf("Workers=%d: inverted index diverges from sequential build", workers)
		}
		if !reflect.DeepEqual(par.mask, seq.mask) ||
			!reflect.DeepEqual(par.freqs, seq.freqs) ||
			!reflect.DeepEqual(par.acts, seq.acts) {
			t.Errorf("Workers=%d: dense blocks diverge from sequential build", workers)
		}
		// The forward lists are released after inversion; compare the ones
		// the first pruned query re-derives from each arena.
		for _, m := range []*Matcher{par, seq} {
			m.RankDetailed(&probes[0], MatchOptions{Mode: prefilter.ModePruned})
		}
		if len(seq.fwdIdx) != len(known) || !reflect.DeepEqual(par.fwdIdx, seq.fwdIdx) ||
			!reflect.DeepEqual(par.fwdVal, seq.fwdVal) {
			t.Errorf("Workers=%d: forward lists diverge from sequential build", workers)
		}
		for i := 0; i < len(probes); i += 7 {
			got, want := par.Match(&probes[i]), seq.Match(&probes[i])
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Workers=%d: Match(%s) diverges:\n%+v\nvs\n%+v", workers, probes[i].Name, got, want)
			}
		}
	}
}

// TestBuildSubjectsWorkerInvariance pins parallel subject construction to
// the sequential result: same order, same documents, same profiles.
func TestBuildSubjectsWorkerInvariance(t *testing.T) {
	d := forum.NewDataset("T", forum.PlatformReddit)
	day := time.Date(2017, 6, 5, 10, 0, 0, 0, time.UTC)
	for i := 0; i < 37; i++ {
		a := forum.Alias{Name: fmt.Sprintf("user%02d", i)}
		// Some aliases get too few messages for an activity profile.
		msgs := 40
		if i%5 == 0 {
			msgs = 3
		}
		for j := 0; j < msgs; j++ {
			a.Messages = append(a.Messages, forum.Message{
				ID:       fmt.Sprintf("%d-%d", i, j),
				Author:   a.Name,
				Body:     strings.Repeat(fmt.Sprintf("word%d ", (i+j)%13), 30),
				PostedAt: day.Add(time.Duration(i*100+j) * time.Hour),
			})
		}
		d.Add(a)
	}

	opts := SubjectOptions{WordBudget: 200, WithActivity: true, Activity: activity.Options{ExcludeWeekends: true}, Workers: 1}
	seq, err := BuildSubjects(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 100} {
		opts.Workers = workers
		par, err := BuildSubjects(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par, seq) {
			t.Errorf("Workers=%d: subjects diverge from sequential build", workers)
		}
	}
}
