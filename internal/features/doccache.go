package features

import "sync/atomic"

// DocCache memoises Extract over a fixed set of texts under one Config,
// each document numbered by one Dictionary. It is stage 2's source of
// candidate documents where the known set's numbered documents are not
// already stage 2's: when the Final config extracts other grams or
// frequencies than the Reduction config, or when the matcher kept no
// documents. At k = 10 candidates per query the same few prolific subjects
// surface over and over, so each is extracted and numbered once, on first
// Get, and a matcher that only ever touches a fraction of the known set (the
// usual case — only subjects that surface in some top-k are rescored) pays
// memory only for that fraction.
//
// Safe for concurrent use. Two goroutines racing on the same cold entry may
// both extract and number it (both are pure), but CompareAndSwap keeps a
// single canonical entry, so every caller observes the same document and
// the same numbers afterwards.
type DocCache struct {
	cfg   Config
	texts []string
	dict  *Dictionary
	docs  []atomic.Pointer[NumberedDoc]
}

// NewDocCache builds a lazy cache over texts, numbered by dict. The slice is
// retained; callers must not mutate it. Nothing is extracted or numbered
// until Get.
func NewDocCache(cfg Config, texts []string, dict *Dictionary) *DocCache {
	return &DocCache{
		cfg:   cfg,
		texts: texts,
		dict:  dict,
		docs:  make([]atomic.Pointer[NumberedDoc], len(texts)),
	}
}

// Get returns the numbered document of texts[i], extracting, numbering and
// caching it on first use. The returned document is shared — callers must
// treat it as read-only.
func (c *DocCache) Get(i int) *NumberedDoc {
	if d := c.docs[i].Load(); d != nil {
		return d
	}
	d := c.dict.Number(Extract(c.texts[i], c.cfg))
	if !c.docs[i].CompareAndSwap(nil, d) {
		return c.docs[i].Load()
	}
	return d
}

// Cached reports whether entry i has been numbered already (for tests and
// memory accounting).
func (c *DocCache) Cached(i int) bool { return c.docs[i].Load() != nil }
