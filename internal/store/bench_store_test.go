package store

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"darklight/internal/attribution"
	"darklight/internal/forum"
)

// Cold-start benchmarks: the whole point of the snapshot is that loading
// it beats rebuilding the index from the corpus. StoreRebuild measures
// the from-scratch path (subject derivation + extraction + both build
// passes); StoreLoad measures reading, digest-verifying, and reassembling
// the same index from disk; StoreSave measures producing the snapshot.
// The recorded counterparts are BENCHMARK.json's build_s, cold_start_s
// and store.{save,load}_s.

type storeBenchWorld struct {
	ds       *forum.Dataset
	idx      *Index
	raw      []byte
	opts     attribution.Options
	subjOpts attribution.SubjectOptions
}

var (
	storeBenchWorlds   = map[int]*storeBenchWorld{}
	storeBenchWorldsMu sync.Mutex
)

// storeBenchDataset keeps per-alias text modest (two ~20-word messages)
// so the 100k world stays buildable in a CI smoke run while extraction
// still dominates the rebuild the way it does on real corpora.
func storeBenchDataset(rng *rand.Rand, n int) *forum.Dataset {
	ds := forum.NewDataset("bench", forum.PlatformTheMajesticGarden)
	t0 := time.Date(2017, 5, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("user%06d", i)
		a := forum.Alias{Name: name}
		for m := 0; m < 2; m++ {
			a.Messages = append(a.Messages, forum.Message{
				ID:       fmt.Sprintf("m%06d-%d", i, m),
				Author:   name,
				Body:     testBody(rng, 20),
				PostedAt: t0.Add(time.Duration(rng.Intn(60*24)) * time.Hour),
			})
		}
		ds.Add(a)
	}
	return ds
}

func getStoreBenchWorld(tb testing.TB, n int) *storeBenchWorld {
	tb.Helper()
	storeBenchWorldsMu.Lock()
	defer storeBenchWorldsMu.Unlock()
	if w, ok := storeBenchWorlds[n]; ok {
		return w
	}
	rng := rand.New(rand.NewSource(int64(8800 + n)))
	ds := storeBenchDataset(rng, n)
	opts := attribution.DefaultOptions()
	subjOpts := attribution.SubjectOptions{WithActivity: true}
	idx, err := BuildIndex(context.Background(), ds, opts, subjOpts)
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := encodeIndex(idx)
	if err != nil {
		tb.Fatal(err)
	}
	w := &storeBenchWorld{ds: ds, idx: idx, raw: raw, opts: opts, subjOpts: subjOpts}
	storeBenchWorlds[n] = w
	return w
}

// storeBenchSizes skips the 100k world under -short, mirroring the
// prefilter benches.
func storeBenchSizes() []int {
	if testing.Short() {
		return []int{1000, 10000}
	}
	return []int{1000, 10000, 100000}
}

func BenchmarkStoreSave(b *testing.B) {
	for _, n := range storeBenchSizes() {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			w := getStoreBenchWorld(b, n)
			st, err := Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(w.raw)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.Save(w.idx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStoreLoad(b *testing.B) {
	for _, n := range storeBenchSizes() {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			w := getStoreBenchWorld(b, n)
			st, err := Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			if err := st.Save(w.idx); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(w.raw)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx, err := st.Load()
				if err != nil {
					b.Fatal(err)
				}
				if idx.Matcher == nil {
					b.Fatal("load returned no matcher")
				}
			}
			b.StopTimer()
			b.ReportMetric(residentPerSubject(b, st, n), "resident-B/subject")
		})
	}
}

// residentPerSubject is the live heap one loaded Index keeps, per subject:
// the HeapAlloc gain, after a collection, of holding a fresh Load alive.
func residentPerSubject(b *testing.B, st *Store, n int) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	idx, err := st.Load()
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(idx)
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
}

func BenchmarkStoreRebuild(b *testing.B) {
	for _, n := range storeBenchSizes() {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			w := getStoreBenchWorld(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx, err := BuildIndex(context.Background(), w.ds, w.opts, w.subjOpts)
				if err != nil {
					b.Fatal(err)
				}
				if idx.Matcher == nil {
					b.Fatal("rebuild returned no matcher")
				}
			}
		})
	}
}
