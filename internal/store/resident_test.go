package store

import (
	"context"
	"math/rand"
	"os"
	"runtime"
	"testing"
)

// TestLoadedIndexResidentPerEntry pins what a loaded index keeps alive, per
// document entry, on a fixed world: the documents held packed, about two
// bytes an entry, and nothing of the file Load read. The corpus section's
// own resident bytes — its messages, which grow with how much an alias
// posts, not with its document — are netted out, so the figure follows the
// documents: with every third of the 80 aliases a frequent poster (26 of
// 80, 45 to 64 messages each) it reads 15.53 where this world reads 15.52.
// Held as (number, count) pairs of 8 bytes, or with the file's buffer kept,
// the figure passes the ceiling.
func TestLoadedIndexResidentPerEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(8500))
	ds := testDataset(rng, "size", 80)
	opts, subjOpts := testBuildOptions()
	idx, err := BuildIndex(context.Background(), ds, opts, subjOpts)
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
	state, err := idx.Matcher.State()
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	for _, d := range state.Docs {
		entries += d.Entries()
	}
	raw, err := os.ReadFile(st.SnapshotPath())
	if err != nil {
		t.Fatal(err)
	}
	_, sections, err := decodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	corpus := heapGain(t, func() any {
		ds, err := readCorpus(sections[secCorpus])
		if err != nil {
			t.Fatal(err)
		}
		return ds
	})
	runtime.KeepAlive(raw) // what readCorpus copied out of is not the corpus's to free
	loaded := heapGain(t, func() any {
		idx, err := st.Load()
		if err != nil {
			t.Fatal(err)
		}
		return idx
	})
	perEntry := (loaded - corpus) / float64(entries)
	t.Logf("%d document entries; the loaded index keeps %.0f B, %.0f of them the corpus section's, and %.2f B an entry besides", entries, loaded, corpus, perEntry)
	// Measured 15.52 here, race detector or not. Entries of 8 bytes measure
	// 21.50; the lists left in the file's buffer, which then stays alive
	// whole (a 1.07 MB snapshot), 17.71.
	const ceiling = 16.5
	if perEntry > ceiling {
		t.Errorf("the loaded index keeps %.2f B a document entry besides the corpus, ceiling %g", perEntry, ceiling)
	}
}

// heapGain is how much more heap is live while what build returns is held
// than before build ran. The first of the two collections before moves what
// sync.Pools hold to their victim caches and the second frees it, so that
// no earlier work's pooled buffers are freed inside the window.
func heapGain(t *testing.T, build func() any) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	held := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(held)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc)
}
