package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"darklight/internal/attribution"
	"darklight/internal/features"
	"darklight/internal/forum"
	"darklight/internal/prefilter"
)

var storeWordPool = strings.Fields(`vendor ship product quality stealth pack order track refund escrow
market listing review price gram sample batch pressed lab domestic overnight deal trust feedback account
bitcoin monero address country customs seizure reship policy vouch thread board post message forum admin
rule scam alert warning legit fast clean pure strong cheap bulk retail drop dead link mirror onion`)

func testBody(rng *rand.Rand, n int) string {
	words := make([]string, n)
	for i := range words {
		words[i] = storeWordPool[rng.Intn(len(storeWordPool))]
	}
	return strings.Join(words, " ")
}

// testDataset builds a deterministic corpus of n aliases with enough
// messages and spread-out timestamps that most get activity profiles.
func testDataset(rng *rand.Rand, name string, n int) *forum.Dataset {
	ds := forum.NewDataset(name, forum.PlatformTheMajesticGarden)
	t0 := time.Date(2017, 5, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		a := forum.Alias{Name: fmt.Sprintf("%s-user%03d", name, i)}
		msgs := 6 + rng.Intn(12)
		for m := 0; m < msgs; m++ {
			a.Messages = append(a.Messages, forum.Message{
				ID:       fmt.Sprintf("%s-%03d-%03d", name, i, m),
				Author:   a.Name,
				Thread:   fmt.Sprintf("t%02d", rng.Intn(8)),
				Body:     testBody(rng, 8+rng.Intn(30)),
				PostedAt: t0.Add(time.Duration(rng.Intn(90*24)) * time.Hour),
			})
		}
		ds.Add(a)
	}
	return ds
}

func testBuildOptions() (attribution.Options, attribution.SubjectOptions) {
	opts := attribution.DefaultOptions()
	opts.Workers = 2
	return opts, attribution.SubjectOptions{WithActivity: true, Workers: 2}
}

// testThread invents one scraped thread: some messages from existing
// authors, some from brand-new ones.
func testThread(rng *rand.Rand, ds *forum.Dataset, id int) forum.ThreadRecord {
	rec := forum.ThreadRecord{Thread: fmt.Sprintf("new-thread-%03d", id)}
	t0 := time.Date(2017, 9, 1, 0, 0, 0, 0, time.UTC)
	nMsg := 1 + rng.Intn(5)
	for m := 0; m < nMsg; m++ {
		var author string
		if rng.Intn(3) > 0 && ds.Len() > 0 {
			author = ds.Aliases[rng.Intn(ds.Len())].Name
		} else {
			author = fmt.Sprintf("newcomer%02d", rng.Intn(6))
		}
		rec.Messages = append(rec.Messages, forum.Message{
			ID:       fmt.Sprintf("nt%03d-%02d", id, m),
			Thread:   rec.Thread,
			Author:   author,
			Body:     testBody(rng, 6+rng.Intn(25)),
			PostedAt: t0.Add(time.Duration(rng.Intn(20*24)) * time.Hour),
		})
	}
	return rec
}

func cloneDataset(ds *forum.Dataset) *forum.Dataset {
	out := forum.NewDataset(ds.Name, ds.Platform)
	for i := range ds.Aliases {
		a := ds.Aliases[i]
		a.Messages = append([]forum.Message(nil), a.Messages...)
		out.Aliases = append(out.Aliases, a)
	}
	return out
}

// assertIndexesEquivalent requires the two indexes to be observably
// identical: same metadata, same corpus, same subjects, and bit-identical
// matcher output through every query path.
func assertIndexesEquivalent(t *testing.T, got, want *Index, probes []attribution.Subject) {
	t.Helper()
	if got.Version != want.Version || got.LastSeq != want.LastSeq || got.Digest != want.Digest {
		t.Fatalf("metadata diverges: got (v%d seq%d %s), want (v%d seq%d %s)",
			got.Version, got.LastSeq, got.Digest, want.Version, want.LastSeq, want.Digest)
	}
	if !reflect.DeepEqual(got.Dataset, want.Dataset) {
		t.Fatal("dataset diverges")
	}
	if !reflect.DeepEqual(got.Subjects, want.Subjects) {
		t.Fatal("subjects diverge")
	}
	// What a snapshot is made from: counters and extractions.
	gs, gerr := got.Matcher.State()
	ws, werr := want.Matcher.State()
	if gerr != nil || werr != nil {
		t.Fatalf("State errors: %v / %v", gerr, werr)
	}
	if !reflect.DeepEqual(gs, ws) {
		t.Fatal("matcher state diverges")
	}
	w := attribution.Weights{Freq: 0.2, Activity: 0.7}
	for pi := range probes {
		p := &probes[pi]
		for _, mode := range []prefilter.Mode{prefilter.ModeExact, prefilter.ModePruned, prefilter.ModeLSH} {
			o := attribution.MatchOptions{K: 5, Weights: &w, Mode: mode}
			gr, _ := got.Matcher.RankDetailed(p, o)
			wr, _ := want.Matcher.RankDetailed(p, o)
			if !reflect.DeepEqual(gr, wr) {
				t.Fatalf("probe %d mode %v: rank diverges\ngot  %v\nwant %v", pi, mode, gr, wr)
			}
		}
		cands := want.Matcher.Rank(p, 5)
		if gre, wre := got.Matcher.Rescore(p, cands), want.Matcher.Rescore(p, cands); !reflect.DeepEqual(gre, wre) {
			t.Fatalf("probe %d: rescore diverges\ngot  %v\nwant %v", pi, gre, wre)
		}
	}
	gall, gerr := got.Matcher.MatchAll(context.Background(), probes)
	wall, werr := want.Matcher.MatchAll(context.Background(), probes)
	if gerr != nil || werr != nil {
		t.Fatalf("MatchAll errors: %v / %v", gerr, werr)
	}
	if !reflect.DeepEqual(gall, wall) {
		t.Fatal("MatchAll output diverges")
	}
}

// TestSaveLoadRoundTrip: the snapshot must load into an index whose output
// is bit-identical to the in-RAM build — whether or not that one had LSH
// operating points built, which a snapshot does not carry — and the loaded
// index must itself be save-able.
func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8100))
	ds := testDataset(rng, "base", 30)
	probeDS := testDataset(rng, "probe", 6)
	opts, subjOpts := testBuildOptions()
	ctx := context.Background()

	idx, err := BuildIndex(ctx, ds, opts, subjOpts)
	if err != nil {
		t.Fatal(err)
	}
	probes, err := attribution.BuildSubjects(probeDS, subjOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Touch the LSH path: an operating point the loaded index has to rebuild.
	idx.Matcher.RankDetailed(&probes[0], attribution.MatchOptions{K: 3, Mode: prefilter.ModeLSH})

	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if st.HasSnapshot() {
		t.Fatal("fresh store claims a snapshot")
	}
	if err := st.Save(idx); err != nil {
		t.Fatal(err)
	}
	if !st.HasSnapshot() {
		t.Fatal("snapshot not visible after Save")
	}
	loaded, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	assertIndexesEquivalent(t, loaded, idx, probes)
	if d, err := forum.DigestJSONL(loaded.Dataset); err != nil || d != loaded.Digest {
		t.Fatalf("loaded corpus digests to %s (err %v), the header says %s", d, err, loaded.Digest)
	}

	// The loaded index must be a full citizen: snapshot-able again — to the
	// bytes it was loaded from, since nothing in a snapshot depends on how
	// the index came to be — and fold-able (the matcher came back
	// incremental).
	first, err := os.ReadFile(st.SnapshotPath())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(loaded); err != nil {
		t.Fatalf("re-save of loaded index: %v", err)
	}
	if again, err := os.ReadFile(st.SnapshotPath()); err != nil || !bytes.Equal(again, first) {
		t.Fatalf("save(load(save(x))) differs from save(x) (err %v, %d vs %d bytes)", err, len(again), len(first))
	}
	if _, err := loaded.Matcher.Fold(ctx, loaded.Subjects[:1]); err != nil {
		t.Fatalf("fold on loaded index: %v", err)
	}
}

// TestSnapshotKeepsOptionsAsGiven: the options section holds what the
// builder was asked for, not what that machine resolved it to — Workers 0
// and K 0 stay zero on disk, through a load and a re-save, so the worker
// count is decided where the index is loaded; the loaded matcher itself runs
// on the resolved form.
func TestSnapshotKeepsOptionsAsGiven(t *testing.T) {
	rng := rand.New(rand.NewSource(8150))
	opts, subjOpts := testBuildOptions()
	opts.Workers, opts.K = 0, 0
	idx, err := BuildIndex(context.Background(), testDataset(rng, "given", 8), opts, subjOpts)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := encodeIndex(idx)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := decodeIndex(raw)
	if err != nil {
		t.Fatal(err)
	}
	again, err := encodeIndex(loaded)
	if err != nil {
		t.Fatal(err)
	}
	for name, snap := range map[string][]byte{"saved": raw, "loaded and saved again": again} {
		var stored attribution.Options
		if err := json.Unmarshal(sectionPayload(t, snap, secOptions), &stored); err != nil {
			t.Fatal(err)
		}
		if stored.Workers != 0 || stored.K != 0 {
			t.Errorf("%s: options section holds Workers %d, K %d; both were given as zero", name, stored.Workers, stored.K)
		}
	}
	want := opts
	want.Incremental = true // BuildIndex's own setting
	if got := loaded.Matcher.Options(); got != want.WithDefaults() || got.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("loaded matcher runs on %+v, want the resolved form of what was given", got)
	}
}

// TestSnapshotWithPrefilterOptionServesExact: a snapshot from a build whose
// matcher options still had a Prefilter object — here one that made lsh the
// matcher's default — loads as it is, ranks with the exact scan, and is
// saved again without the key.
func TestSnapshotWithPrefilterOptionServesExact(t *testing.T) {
	raw := smallSnapshot(t)
	opts := sectionPayload(t, raw, secOptions)
	const old = `"Prefilter":{"Mode":3,"Pruned":{"Slack":0.001,"TailShare":0.05},"LSH":{"Bands":8,"Rows":4,"Seed":7234309494949079400}},`
	at := bytes.Index(opts, []byte(`"Incremental"`))
	if at < 0 || bytes.Contains(opts, []byte("Prefilter")) {
		t.Fatalf("options section is not what this test splices into: %s", opts)
	}
	withKey := reseal(t, raw, secOptions, append(append(append([]byte(nil), opts[:at]...), old...), opts[at:]...))

	want, err := decodeIndex(raw)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeIndex(withKey)
	if err != nil {
		t.Fatalf("snapshot with a Prefilter option: %v", err)
	}
	for i := range got.Subjects {
		ranked, st := got.Matcher.RankDetailed(&got.Subjects[i], attribution.MatchOptions{K: 3})
		exact, _ := want.Matcher.RankDetailed(&want.Subjects[i], attribution.MatchOptions{K: 3, Mode: prefilter.ModeExact})
		if st.Mode != prefilter.ModeExact || !reflect.DeepEqual(ranked, exact) {
			t.Fatalf("subject %d ranked as %v: %v, want the exact scan's %v", i, st.Mode, ranked, exact)
		}
	}
	if again, err := encodeIndex(got); err != nil || !bytes.Equal(again, raw) {
		t.Errorf("saved again: err %v, %d bytes; want the %d bytes of the snapshot without the key", err, len(again), len(raw))
	}
}

// TestApplyThreads pins the delta semantics: grouping by author, new
// aliases for new authors, canonical order, and no mutation of the input.
func TestApplyThreads(t *testing.T) {
	ds := forum.NewDataset("d", forum.PlatformTheMajesticGarden)
	t0 := time.Date(2017, 5, 1, 12, 0, 0, 0, time.UTC)
	ds.Add(forum.Alias{Name: "ann", Messages: []forum.Message{{ID: "a0", Author: "ann", Body: "old post", PostedAt: t0}}})
	ds.Add(forum.Alias{Name: "zed", Messages: []forum.Message{{ID: "z0", Author: "zed", Body: "other", PostedAt: t0}}})
	before := cloneDataset(ds)

	recs := []forum.ThreadRecord{{
		Thread: "t9",
		Messages: []forum.Message{
			{ID: "m1", Author: "zed", Body: "reply one", PostedAt: t0.Add(time.Hour)},
			{ID: "m2", Author: "newguy", Body: "first post", PostedAt: t0.Add(2 * time.Hour)},
			{ID: "m3", Author: "zed", Body: "reply two", PostedAt: t0.Add(3 * time.Hour)},
		},
	}}
	out, changed := ApplyThreads(ds, recs)

	if !reflect.DeepEqual(changed, []string{"newguy", "zed"}) {
		t.Errorf("changed = %v, want [newguy zed]", changed)
	}
	if got := out.Names(); !reflect.DeepEqual(got, []string{"ann", "newguy", "zed"}) {
		t.Errorf("names = %v, want [ann newguy zed]", got)
	}
	z, err := out.Find("zed")
	if err != nil || len(z.Messages) != 3 || z.Messages[1].ID != "m1" || z.Messages[2].ID != "m3" {
		t.Errorf("zed messages wrong: %+v (err %v)", z, err)
	}
	ng, err := out.Find("newguy")
	if err != nil || len(ng.Messages) != 1 || ng.Platform != ds.Platform {
		t.Errorf("newguy wrong: %+v (err %v)", ng, err)
	}
	if !reflect.DeepEqual(ds, before) {
		t.Error("ApplyThreads mutated its input dataset")
	}
}

// TestReplayMatchesRebuild is the crash-recovery equivalence property:
// append threads to the journal, replay them onto the loaded snapshot,
// and the resulting index must be bit-identical to building from scratch
// over the merged corpus. Run with -race, trials in parallel.
func TestReplayMatchesRebuild(t *testing.T) {
	trials := 4
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("world%d", trial), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(8200 + trial)))
			ds := testDataset(rng, "corpus", 15+rng.Intn(15))
			probeDS := testDataset(rng, "probe", 5)
			opts, subjOpts := testBuildOptions()
			opts.Workers = 1 + rng.Intn(3)
			if trial%2 == 1 {
				// Budgets below the gram universe, as on any real corpus: the
				// vocabulary is a cut, and every fold moves it.
				opts.Reduction.MaxWordGrams, opts.Reduction.MaxCharGrams = 300, 400
			}
			ctx := context.Background()

			idx, err := BuildIndex(ctx, ds, opts, subjOpts)
			if err != nil {
				t.Fatal(err)
			}
			probes, err := attribution.BuildSubjects(probeDS, subjOpts)
			if err != nil {
				t.Fatal(err)
			}

			st, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Save(idx); err != nil {
				t.Fatal(err)
			}
			nThreads := 1 + rng.Intn(4)
			for i := 0; i < nThreads; i++ {
				seq, err := st.AppendThread(testThread(rng, ds, i))
				if err != nil {
					t.Fatal(err)
				}
				if want := uint64(i + 1); seq != want {
					t.Fatalf("AppendThread seq = %d, want %d", seq, want)
				}
			}

			// Cold start: load the snapshot, replay the journal.
			cold, err := st.Load()
			if err != nil {
				t.Fatal(err)
			}
			entries, err := st.ReadJournal(cold.LastSeq)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != nThreads {
				t.Fatalf("journal has %d entries, want %d", len(entries), nThreads)
			}
			next, err := Replay(ctx, cold, entries, subjOpts)
			if err != nil {
				t.Fatal(err)
			}
			if next.Version != cold.Version+1 || next.LastSeq != entries[len(entries)-1].Seq {
				t.Fatalf("replayed index at (v%d seq%d)", next.Version, next.LastSeq)
			}

			// Reference: a from-scratch build over the merged corpus.
			rebuilt, err := BuildIndex(ctx, cloneDataset(next.Dataset), opts, subjOpts)
			if err != nil {
				t.Fatal(err)
			}
			rebuilt.Version, rebuilt.LastSeq = next.Version, next.LastSeq
			assertIndexesEquivalent(t, next, rebuilt, probes)

			// Replay is idempotent: entries at or below LastSeq are skipped.
			again, err := Replay(ctx, next, entries, subjOpts)
			if err != nil {
				t.Fatal(err)
			}
			if again != next {
				t.Error("replay of already-folded entries built a new index")
			}

			// Save the new generation, compact, and the journal is empty;
			// a fresh load round-trips the folded index.
			if err := st.Save(next); err != nil {
				t.Fatal(err)
			}
			if err := st.CompactJournal(next.LastSeq); err != nil {
				t.Fatal(err)
			}
			left, err := st.ReadJournal(0)
			if err != nil {
				t.Fatal(err)
			}
			if len(left) != 0 {
				t.Fatalf("journal holds %d entries after compaction", len(left))
			}
			reloaded, err := st.Load()
			if err != nil {
				t.Fatal(err)
			}
			assertIndexesEquivalent(t, reloaded, next, probes)
		})
	}
}

// TestJournalTornTailDropsOnlyTear: a crash mid-append leaves a partial
// final line; reads drop exactly that line, and Open repairs the file so
// the next append continues the sequence.
func TestJournalTornTailDropsOnlyTear(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8300))
	ds := testDataset(rng, "d", 3)
	for i := 0; i < 3; i++ {
		if _, err := st.AppendThread(testThread(rng, ds, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a kill mid-append: a truncated JSON line with no newline.
	f, err := os.OpenFile(st.JournalPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":4,"thread":{"thread":"torn","mess`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := st.ReadJournal(0)
	if err != nil {
		t.Fatalf("torn tail must be tolerated, got %v", err)
	}
	if len(entries) != 3 {
		t.Fatalf("read %d entries past a torn tail, want 3", len(entries))
	}

	// Reopen: the tear is repaired and sequence numbering continues.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := st2.AppendThread(testThread(rng, ds, 99))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 4 {
		t.Errorf("post-repair seq = %d, want 4", seq)
	}
	entries, err = st2.ReadJournal(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("post-repair journal = %d entries, want 4", len(entries))
	}
	if entries[3].Seq != 4 {
		t.Errorf("post-repair last seq = %d, want 4", entries[3].Seq)
	}
}

// TestJournalMidFileCorruptionFails: an undecodable line that is not the
// tail is real corruption and must fail loudly with the journal named.
func TestJournalMidFileCorruptionFails(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := `{"seq":%d,"thread":{"thread":"t%d","messages":null}}` + "\n"
	raw := fmt.Sprintf(good, 1, 1) + "@@garbage@@\n" + fmt.Sprintf(good, 2, 2)
	if err := os.WriteFile(st.JournalPath(), []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = st.ReadJournal(0)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("mid-file corruption returned %v, want *CorruptError", err)
	}
	if ce.Section != "journal" || ce.Path != st.JournalPath() {
		t.Errorf("CorruptError = %+v, want section journal with the journal path", ce)
	}
	// Open must refuse the directory too, not silently resurrect it.
	if _, err := Open(dir); !errors.As(err, &ce) {
		t.Errorf("Open on corrupt journal returned %v, want *CorruptError", err)
	}
}

// TestJournalSequenceRegressionFails: sequence numbers must strictly
// increase; a replayed or spliced journal is corruption, not data.
func TestJournalSequenceRegressionFails(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	raw := `{"seq":2,"thread":{"thread":"a","messages":null}}` + "\n" +
		`{"seq":1,"thread":{"thread":"b","messages":null}}` + "\n"
	if err := os.WriteFile(st.JournalPath(), []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = st.ReadJournal(0)
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Section != "journal" {
		t.Fatalf("sequence regression returned %v, want journal CorruptError", err)
	}
}

// TestOpenContinuesSequenceAfterCompaction: the journal alone does not say
// where a compacted directory's sequence stands — the snapshot's LastSeq
// does. A fresh handle (a scraper restarting beside a running daemon) must
// continue past it: restarting at 1 would hand out sequence numbers the
// snapshot already claims, and ReadJournal(LastSeq) would skip the fsynced
// deltas that carry them.
func TestOpenContinuesSequenceAfterCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(8300))
	ds := testDataset(rng, "corpus", 12)
	opts, subjOpts := testBuildOptions()
	ctx := context.Background()
	idx, err := BuildIndex(ctx, ds, opts, subjOpts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	for i := 0; i < n; i++ {
		if _, err := st.AppendThread(testThread(rng, ds, i)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := st.ReadJournal(0)
	if err != nil {
		t.Fatal(err)
	}
	folded, err := Replay(ctx, idx, entries, subjOpts)
	if err != nil {
		t.Fatal(err)
	}
	if folded.LastSeq != n {
		t.Fatalf("folded index at seq %d, want %d", folded.LastSeq, n)
	}
	if err := st.Save(folded); err != nil {
		t.Fatal(err)
	}
	if err := st.CompactJournal(folded.LastSeq); err != nil {
		t.Fatal(err)
	}

	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := fresh.AppendThread(testThread(rng, ds, n))
	if err != nil {
		t.Fatal(err)
	}
	if seq != n+1 {
		t.Fatalf("AppendThread after save+compact+reopen returned seq %d, want %d", seq, n+1)
	}
	pending, err := fresh.ReadJournal(folded.LastSeq)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].Seq != n+1 {
		t.Fatalf("ReadJournal(%d) = %d entries %+v, want exactly seq %d", folded.LastSeq, len(pending), pending, n+1)
	}

	// An unreadable snapshot header must fail Open rather than let the
	// sequence silently restart.
	if err := os.WriteFile(fresh.SnapshotPath(), []byte("DLIX"), 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, err := Open(dir); !errors.As(err, &ce) || ce.Section != "header" || ce.Path != fresh.SnapshotPath() {
		t.Fatalf("Open on a truncated snapshot header returned %v, want a header CorruptError with the snapshot path", err)
	}
}

// TestSnapshotSizeAndAllocationCeilings pins what the format is for, on a
// world big enough that constants do not dominate: the two index sections
// cost the dictionary 8 bytes a distinct gram and a document entry little
// over two bytes (a one-byte step, a one-byte count, sometimes more); Save
// allocates no more than 1.5× the file it writes (it streams: no section and
// no file is ever held whole); and Load and Fold allocate by the subject — a
// constant number of blocks for the corpus, the documents, the counter
// arrays and the cut's tables, and what the index pass allocates per
// subject — not by the message or the gram: no hash map holds a gram.
func TestSnapshotSizeAndAllocationCeilings(t *testing.T) {
	rng := rand.New(rand.NewSource(8500))
	ds := testDataset(rng, "size", 80)
	opts, subjOpts := testBuildOptions()
	opts.Reduction.MaxWordGrams, opts.Reduction.MaxCharGrams = 2000, 3000
	idx, err := BuildIndex(context.Background(), ds, opts, subjOpts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(fn func()) (bytes, objects uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	saveBytes, _ := allocs(func() { err = st.Save(idx) })
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(st.SnapshotPath())
	if err != nil {
		t.Fatal(err)
	}
	_, loadObjects := allocs(func() { _, err = st.Load() })
	if err != nil {
		t.Fatal(err)
	}
	// A fold of two subjects: beyond extracting those two, it allocates what a
	// load's index pass does.
	changed := append([]attribution.Subject(nil), idx.Subjects[3], idx.Subjects[40])
	changed[0].Text += " " + testBody(rng, 40)
	changed[1].Text += " " + testBody(rng, 40)
	_, extractObjects := allocs(func() {
		for _, c := range changed {
			features.Extract(c.Text, opts.Reduction)
		}
	})
	_, foldObjects := allocs(func() { _, err = idx.Matcher.Fold(context.Background(), changed) })
	if err != nil {
		t.Fatal(err)
	}

	state, err := idx.Matcher.State()
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	for _, d := range state.Docs {
		entries += len(d.WordGrams) + len(d.CharGrams)
	}
	grams := len(state.Stats.Words) + len(state.Stats.Chars)
	subjects, messages := len(idx.Subjects), ds.TotalMessages()
	layout := snapshotLayout(t, raw)
	t.Logf("%d bytes: %d subjects, %d messages, %d distinct grams, %d document entries; grams %d B, docs %d B (%.2f B an entry); Save allocated %d B, Load %d objects, Fold %d objects beyond %d to extract the changed subjects",
		len(raw), subjects, messages, grams, entries, layout[secGrams].len, layout[secDocs].len,
		float64(layout[secDocs].len-subjects*8*features.NumFreqFeatures)/float64(entries), saveBytes, loadObjects, foldObjects-extractObjects, extractObjects)

	if got, max := layout[secGrams].len, 8*grams+8; got > max {
		t.Errorf("grams section is %d bytes for %d distinct grams, ceiling %d", got, grams, max)
	}
	if got, max := layout[secDocs].len, entries*9/4+subjects*(8*features.NumFreqFeatures+32)+12; got > max {
		t.Errorf("docs section is %d bytes for %d entries in %d documents, ceiling %d", got, entries, subjects, max)
	}
	if max := uint64(len(raw)) * 3 / 2; saveBytes > max {
		t.Errorf("Save allocated %d bytes for a %d-byte snapshot, ceiling %d", saveBytes, len(raw), max)
	}
	// Per-subject terms with room for what the race detector adds (it turns
	// sync.Pool off); neither ceiling has a per-gram term.
	if max := uint64(8*subjects + 32); loadObjects > max || loadObjects > uint64(messages) {
		t.Errorf("Load made %d allocations for %d subjects (%d messages, %d grams), ceiling %d and fewer than one a message", loadObjects, subjects, messages, grams, max)
	}
	if max := extractObjects + uint64(7*subjects+32); foldObjects > max {
		t.Errorf("Fold made %d allocations for %d subjects (%d grams), %d of them extracting the changed subjects, ceiling %d", foldObjects, subjects, grams, extractObjects, max)
	}
}

// TestReplayRefusesCountersThatDoNotHoldTheDocument: an index whose counters
// never counted the document a fold takes out of them — here one subject's
// cached extraction swapped for another text's — fails the replay with the
// gram named, instead of publishing a generation cut from negative counters.
func TestReplayRefusesCountersThatDoNotHoldTheDocument(t *testing.T) {
	rng := rand.New(rand.NewSource(8800))
	ds := testDataset(rng, "corpus", 8)
	opts, subjOpts := testBuildOptions()
	ctx := context.Background()
	idx, err := BuildIndex(ctx, ds, opts, subjOpts)
	if err != nil {
		t.Fatal(err)
	}
	state, err := idx.Matcher.State()
	if err != nil {
		t.Fatal(err)
	}
	state.Docs = append([]*features.SortedDoc(nil), state.Docs...)
	state.Docs[2] = features.Extract("words no alias of this corpus ever posted zyzzyva quokka", opts.Reduction)
	forged := *idx
	if forged.Matcher, err = attribution.NewMatcherFromState(idx.Subjects, state); err != nil {
		t.Fatal(err)
	}

	thread := forum.ThreadRecord{Thread: "t-new", Messages: []forum.Message{{
		ID: "m-new", Thread: "t-new", Author: idx.Subjects[2].Name, Body: testBody(rng, 30), PostedAt: time.Date(2017, 9, 2, 8, 0, 0, 0, time.UTC),
	}}}
	entries := []JournalEntry{{Seq: 1, Thread: thread}}
	next, err := Replay(ctx, &forged, entries, subjOpts)
	if err == nil || next != nil || !strings.Contains(err.Error(), "never added") {
		t.Fatalf("replay over forged counters returned index %v, error %v; want no index and the counters' refusal", next != nil, err)
	}
	t.Log(err)
	// The same delta folds into the index whose counters do hold the document.
	if _, err := Replay(ctx, idx, entries, subjOpts); err != nil {
		t.Fatalf("replay over the sound index: %v", err)
	}
}

// TestCompactionKeepsConcurrentAppends: a scraper appends through one handle
// while the daemon compacts through another. Compaction renames a rewritten
// file over the journal; without the directory lock an append that had the
// old file open — or landed between the rewrite's read and its rename —
// was acknowledged, fsynced and gone. Every acknowledged sequence above the
// last keepAfter must be in the journal afterwards. Run with -race.
func TestCompactionKeepsConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	appender, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	compactor, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appends := 150
	if testing.Short() {
		appends = 40
	}
	rng := rand.New(rand.NewSource(8600))
	ds := testDataset(rng, "d", 3)
	var acked atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < appends; i++ {
			seq, err := appender.AppendThread(testThread(rng, ds, i))
			if err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
			acked.Store(seq)
		}
	}()
	keepAfter, compactions := uint64(0), 0
	for running := true; running; compactions++ {
		select {
		case <-done:
			running = false
		default:
		}
		// Drop the older half of what has been acknowledged so far: most
		// rewrites carry entries over, all of which must survive them.
		keepAfter = acked.Load() / 2
		if err := compactor.CompactJournal(keepAfter); err != nil {
			t.Fatalf("compaction %d: %v", compactions, err)
		}
	}
	entries, err := compactor.ReadJournal(0)
	if err != nil {
		t.Fatal(err)
	}
	have := make(map[uint64]bool, len(entries))
	for _, e := range entries {
		have[e.Seq] = true
	}
	for seq := keepAfter + 1; seq <= acked.Load(); seq++ {
		if !have[seq] {
			t.Errorf("acknowledged sequence %d (above keepAfter %d) is not in the journal after %d compactions", seq, keepAfter, compactions)
		}
	}
	if acked.Load() != uint64(appends) {
		t.Errorf("last acknowledged sequence %d, want %d", acked.Load(), appends)
	}
}

// TestOtherFormatVersionIsNotCorruption: a snapshot written by another
// format version is intact, just unreadable here. Load says so with its own
// error type, naming the file and both versions, so a caller can rebuild
// instead of alarming; Open still reads the journal position off the fixed
// header, so appends never reuse a sequence that snapshot had folded in.
func TestOtherFormatVersionIsNotCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(8700))
	opts, subjOpts := testBuildOptions()
	idx, err := BuildIndex(context.Background(), testDataset(rng, "v", 6), opts, subjOpts)
	if err != nil {
		t.Fatal(err)
	}
	idx.LastSeq = 41
	raw, err := encodeIndex(idx)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[len(magic):], formatVersion+1)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("Open beside a snapshot of another version: %v", err)
	}
	_, err = st.Load()
	var ve *VersionError
	var ce *CorruptError
	if !errors.As(err, &ve) || errors.As(err, &ce) {
		t.Fatalf("Load returned %v, want a *VersionError and no *CorruptError", err)
	}
	if ve.Path != st.SnapshotPath() || ve.Got != formatVersion+1 || ve.Want != formatVersion {
		t.Errorf("VersionError = %+v, want the snapshot path and versions %d, %d", ve, formatVersion+1, formatVersion)
	}
	if seq, err := st.AppendThread(testThread(rng, idx.Dataset, 0)); err != nil || seq != 42 {
		t.Errorf("AppendThread = %d, %v; want 42, continuing past the old snapshot's LastSeq", seq, err)
	}
	// Saving over it is what a rebuild does; the directory is whole again.
	idx.LastSeq = 0
	if err := st.Save(idx); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(); err != nil {
		t.Fatalf("Load after saving over the old snapshot: %v", err)
	}
}
