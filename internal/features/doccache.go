package features

import "sync/atomic"

// DocCache memoises Extract over a fixed set of texts under one Config. It
// is the attribution layer's hook for the second-stage hot path: the matcher
// re-reads the same known subjects' documents for every unknown it
// rescoring-ranks, and at k = 10 candidates per query the same few prolific
// subjects surface over and over. Entries
// are extracted lazily on first Get, so a matcher that only ever touches a
// fraction of the known set (the usual case — only subjects that surface
// in some top-k are rescored) pays memory only for that fraction.
//
// Safe for concurrent use. Two goroutines racing on the same cold entry may
// both extract (Extract is pure), but CompareAndSwap keeps a single
// canonical pointer, so every caller observes the same document afterwards.
type DocCache struct {
	cfg   Config
	texts []string
	docs  []atomic.Pointer[SortedDoc]
}

// NewDocCache builds a lazy cache over texts. The slice is retained;
// callers must not mutate it. No extraction happens until Get.
func NewDocCache(cfg Config, texts []string) *DocCache {
	return &DocCache{
		cfg:   cfg,
		texts: texts,
		docs:  make([]atomic.Pointer[SortedDoc], len(texts)),
	}
}

// Seed installs docs[i] as the extraction of texts[i], for a caller that
// already holds what Get would compute: those entries never extract.
func (c *DocCache) Seed(docs []*SortedDoc) {
	for i, d := range docs {
		c.docs[i].Store(d)
	}
}

// Get returns the extracted document of texts[i], extracting and caching
// it on first use. The returned document is shared — callers must treat it
// as read-only.
func (c *DocCache) Get(i int) *SortedDoc {
	if d := c.docs[i].Load(); d != nil {
		return d
	}
	d := Extract(c.texts[i], c.cfg)
	if !c.docs[i].CompareAndSwap(nil, d) {
		return c.docs[i].Load()
	}
	return d
}

// Cached reports whether entry i has been extracted already (for tests and
// memory accounting).
func (c *DocCache) Cached(i int) bool { return c.docs[i].Load() != nil }
