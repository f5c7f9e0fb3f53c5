package features

import "sync/atomic"

// DocCache memoises Extract over a fixed set of texts under one Config,
// each document numbered by one Dictionary. It is the attribution layer's
// hook for the second-stage hot path: the matcher re-reads the same known
// subjects' documents for every unknown it rescoring-ranks, and at k = 10
// candidates per query the same few prolific subjects surface over and
// over. Entries are extracted and numbered lazily on first Get, so a
// matcher that only ever touches a fraction of the known set (the usual
// case — only subjects that surface in some top-k are rescored) pays
// memory only for that fraction.
//
// Safe for concurrent use. Two goroutines racing on the same cold entry may
// both extract and number it (both are pure), but CompareAndSwap keeps a
// single canonical entry, so every caller observes the same document and
// the same numbers afterwards.
type DocCache struct {
	cfg   Config
	texts []string
	seed  []*SortedDoc
	dict  *Dictionary
	docs  []atomic.Pointer[NumberedDoc]
}

// NewDocCache builds a lazy cache over texts, numbered by dict. seed, when
// non-nil, holds what extracting each text would compute: those documents
// are numbered, never extracted. The slices are retained; callers must not
// mutate them. Nothing is extracted or numbered until Get.
func NewDocCache(cfg Config, texts []string, seed []*SortedDoc, dict *Dictionary) *DocCache {
	return &DocCache{
		cfg:   cfg,
		texts: texts,
		seed:  seed,
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
	var doc *SortedDoc
	if c.seed != nil {
		doc = c.seed[i]
	} else {
		doc = Extract(c.texts[i], c.cfg)
	}
	d := c.dict.Number(doc)
	if !c.docs[i].CompareAndSwap(nil, d) {
		return c.docs[i].Load()
	}
	return d
}

// Cached reports whether entry i has been numbered already (for tests and
// memory accounting).
func (c *DocCache) Cached(i int) bool { return c.docs[i].Load() != nil }
