// Package forum defines the data model shared by every stage of the
// darklight pipeline: messages, aliases, and datasets collected from (or
// generated to stand in for) web forums.
//
// The model is intentionally minimal — the linking methodology of the paper
// consumes only (alias, message text, timestamp) triples plus the forum and
// board the message was posted on. Everything else (votes, threads, user
// profiles) is irrelevant to attribution and is not modelled.
package forum

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
	"unicode"
	"unicode/utf8"
)

// Platform identifies the kind of site a dataset was collected from.
type Platform int

// Platforms under study. Reddit is the "open web" platform; TheMajesticGarden
// and DreamMarket are the two Dark Web forums of the paper. Synthetic marks
// generated corpora that do not correspond to a concrete site.
const (
	PlatformUnknown Platform = iota
	PlatformReddit
	PlatformTheMajesticGarden
	PlatformDreamMarket
	PlatformSynthetic
)

var platformNames = map[Platform]string{
	PlatformUnknown:           "unknown",
	PlatformReddit:            "reddit",
	PlatformTheMajesticGarden: "tmg",
	PlatformDreamMarket:       "dm",
	PlatformSynthetic:         "synthetic",
}

// String returns the short lowercase name used in dataset files and CLIs.
func (p Platform) String() string {
	if s, ok := platformNames[p]; ok {
		return s
	}
	return fmt.Sprintf("platform(%d)", int(p))
}

// ParsePlatform converts a short name back into a Platform.
func ParsePlatform(s string) (Platform, error) {
	for p, name := range platformNames {
		if name == s {
			return p, nil
		}
	}
	return PlatformUnknown, fmt.Errorf("forum: unknown platform %q", s)
}

// Message is a single forum post by one alias.
type Message struct {
	// ID is unique within a dataset. Synthetic generators and scrapers are
	// responsible for assigning it.
	ID string `json:"id"`
	// Author is the alias (nickname) that posted the message.
	Author string `json:"author"`
	// Board is the sub-community: a subreddit on Reddit, a section on a
	// Dark Web forum.
	Board string `json:"board,omitempty"`
	// Thread groups messages of one discussion.
	Thread string `json:"thread,omitempty"`
	// Body is the raw text as collected. The normalize package produces the
	// polished form; Body is never mutated in place.
	Body string `json:"body"`
	// PostedAt is the post time. Scrapers record the forum-local time; the
	// activity package aligns everything to UTC before binning.
	PostedAt time.Time `json:"posted_at"`
	// Quoted is any quoted text that the platform marks explicitly
	// (e.g. "> ..." on Reddit). Kept separate so cleaning can verify its
	// removal.
	Quoted string `json:"quoted,omitempty"`
}

// WordCount counts whitespace-separated tokens in the body. It is the word
// metric used by every threshold in the paper (≥10-word messages, ≥1,500
// words per alias, ≥3,000 words for alter-ego sources). The count equals
// len(strings.Fields(m.Body)) without materialising the fields — WordCount
// sits inside every refinement filter and the longest-first sort
// comparator, where the per-call allocation dominated.
func (m *Message) WordCount() int {
	return countWords(m.Body)
}

// countWords counts maximal runs of non-space runes, the field boundary
// rule of strings.Fields (unicode.IsSpace).
func countWords(s string) int {
	n := 0
	inField := false
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			// ASCII fast path, mirroring strings.Fields.
			if asciiSpace[c] {
				inField = false
			} else if !inField {
				n++
				inField = true
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if unicode.IsSpace(r) {
			inField = false
		} else if !inField {
			n++
			inField = true
		}
		i += size
	}
	return n
}

// AppendWords appends the body's first n words, as countWords counts them,
// to dst one space apart: strings.Join(strings.Fields(m.Body)[:n], " ")
// without the slices.
func (m *Message) AppendWords(dst []byte, n int) []byte {
	for i, words := 0, 0; words < n; words++ {
		start, end := nextField(m.Body, i)
		if start == end {
			break
		}
		if words > 0 {
			dst = append(dst, ' ')
		}
		dst, i = append(dst, m.Body[start:end]...), end
	}
	return dst
}

// nextField returns the bounds of the first field of s at or after byte i,
// a maximal run of non-space runes as countWords counts them; start == end
// when no field is left.
func nextField(s string, i int) (start, end int) {
	start = -1
	for i < len(s) {
		space, size := true, 1
		if c := s[i]; c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			var r rune
			r, size = utf8.DecodeRuneInString(s[i:])
			space = unicode.IsSpace(r)
		}
		if !space && start < 0 {
			start = i
		} else if space && start >= 0 {
			return start, i
		}
		i += size
	}
	if start < 0 {
		return len(s), len(s)
	}
	return start, len(s)
}

// asciiSpace marks the ASCII bytes unicode.IsSpace reports true for.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// wordSets recycles DistinctWordRatio's set of case-folded words, emptied
// after every use, so the spam filter allocates no map per message.
var wordSets = sync.Pool{New: func() any { return make(map[string]struct{}) }}

// DistinctWordRatio returns the number of distinct (case-folded) words over
// the total number of words. The polishing step 6 of the paper discards
// messages with a ratio below 0.5 as spam. A message with no words has
// ratio 0.
//
// The words are those of strings.Fields, walked in place, and the set
// holds each one as strings.ToLower folds it; ToLower returns a word it
// leaves unchanged as the body's own substring, so only the others are
// copied.
func (m *Message) DistinctWordRatio() float64 {
	seen := wordSets.Get().(map[string]struct{})
	words := 0
	for i := 0; ; words++ {
		start, end := nextField(m.Body, i)
		if start == end {
			break
		}
		seen[strings.ToLower(m.Body[start:end])] = struct{}{}
		i = end
	}
	distinct := len(seen)
	clear(seen)
	wordSets.Put(seen)
	if words == 0 {
		return 0
	}
	return float64(distinct) / float64(words)
}

// Alias is one account on one platform together with everything it posted.
type Alias struct {
	// Name is the nickname as it appears on the platform.
	Name string `json:"name"`
	// Platform the alias belongs to.
	Platform Platform `json:"platform"`
	// Messages posted by this alias, in no particular order unless a
	// pipeline stage documents otherwise.
	Messages []Message `json:"messages"`
}

// Key returns the globally unique identifier "platform/name" for the alias.
func (a *Alias) Key() string { return a.Platform.String() + "/" + a.Name }

// TotalWords sums the word counts of all messages.
func (a *Alias) TotalWords() int {
	total := 0
	for i := range a.Messages {
		total += a.Messages[i].WordCount()
	}
	return total
}

// Text concatenates all message bodies separated by newlines. Stages that
// need a bounded amount of text should use corpus.Document instead.
func (a *Alias) Text() string {
	var b strings.Builder
	for i := range a.Messages {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(a.Messages[i].Body)
	}
	return b.String()
}

// IsLikelyBot reports whether the alias name starts or ends with "bot"
// (case-insensitive), the heuristic of polishing step 1. Trailing digits are
// ignored so that "tipbot3000" is caught too.
func (a *Alias) IsLikelyBot() bool {
	name := strings.ToLower(a.Name)
	trimmed := strings.TrimRightFunc(name, unicode.IsDigit)
	return strings.HasPrefix(name, "bot") || strings.HasSuffix(trimmed, "bot")
}

// Dataset is a named collection of aliases from one platform.
type Dataset struct {
	// Name labels the dataset ("Reddit", "AE_Reddit", "TMG", ...).
	Name string `json:"name"`
	// Platform all aliases belong to.
	Platform Platform `json:"platform"`
	// Aliases in the dataset.
	Aliases []Alias `json:"aliases"`
}

// NewDataset returns an empty dataset with the given name and platform.
func NewDataset(name string, p Platform) *Dataset {
	return &Dataset{Name: name, Platform: p}
}

// Len returns the number of aliases.
func (d *Dataset) Len() int { return len(d.Aliases) }

// TotalMessages counts messages across all aliases.
func (d *Dataset) TotalMessages() int {
	total := 0
	for i := range d.Aliases {
		total += len(d.Aliases[i].Messages)
	}
	return total
}

// TotalWords counts words across all aliases.
func (d *Dataset) TotalWords() int {
	total := 0
	for i := range d.Aliases {
		total += d.Aliases[i].TotalWords()
	}
	return total
}

// Add appends an alias. The alias platform is forced to the dataset's.
func (d *Dataset) Add(a Alias) {
	a.Platform = d.Platform
	d.Aliases = append(d.Aliases, a)
}

// ErrAliasNotFound is returned by Find when no alias has the given name.
var ErrAliasNotFound = errors.New("forum: alias not found")

// Find returns a pointer to the alias with the given name.
func (d *Dataset) Find(name string) (*Alias, error) {
	for i := range d.Aliases {
		if d.Aliases[i].Name == name {
			return &d.Aliases[i], nil
		}
	}
	return nil, fmt.Errorf("%w: %q in %s", ErrAliasNotFound, name, d.Name)
}

// Names returns the alias names in dataset order.
func (d *Dataset) Names() []string {
	names := make([]string, len(d.Aliases))
	for i := range d.Aliases {
		names[i] = d.Aliases[i].Name
	}
	return names
}

// SortByName orders aliases lexicographically, for deterministic iteration.
func (d *Dataset) SortByName() {
	sort.Slice(d.Aliases, func(i, j int) bool {
		return d.Aliases[i].Name < d.Aliases[j].Name
	})
}

// Filter returns a new dataset containing only the aliases accepted by keep.
// Message slices are shared with the original dataset.
func (d *Dataset) Filter(keep func(*Alias) bool) *Dataset {
	out := NewDataset(d.Name, d.Platform)
	for i := range d.Aliases {
		if keep(&d.Aliases[i]) {
			out.Aliases = append(out.Aliases, d.Aliases[i])
		}
	}
	return out
}

// Merge returns a new dataset with the aliases of both inputs. The paper
// merges TMG with DM into "DarkWeb" for the §IV-G experiment. Every alias
// is renamed to "name@platform" so that (a) names stay unique across
// inputs and (b) merging a dataset and separately merging its alter-ego
// split yields consistent names — name-equality ground truth survives the
// merge.
func Merge(name string, p Platform, datasets ...*Dataset) *Dataset {
	out := NewDataset(name, p)
	for _, d := range datasets {
		for i := range d.Aliases {
			a := d.Aliases[i]
			a.Name = a.Name + "@" + a.Platform.String()
			a.Platform = p
			out.Aliases = append(out.Aliases, a)
		}
	}
	return out
}

// HashNickname returns a stable hex digest of a nickname. Mirrors the
// ethics handling of §VII: stored datasets never contain raw nicknames.
func HashNickname(name string) string {
	sum := sha256.Sum256([]byte("darklight:" + name))
	return hex.EncodeToString(sum[:8])
}

// Anonymize returns a copy of the dataset with every author nickname
// replaced by its hash. The mapping is returned so an operator holding the
// original data can invert it.
func (d *Dataset) Anonymize() (*Dataset, map[string]string) {
	mapping := make(map[string]string, len(d.Aliases))
	out := NewDataset(d.Name, d.Platform)
	for i := range d.Aliases {
		orig := d.Aliases[i]
		h := HashNickname(orig.Name)
		mapping[h] = orig.Name
		msgs := make([]Message, len(orig.Messages))
		copy(msgs, orig.Messages)
		for j := range msgs {
			msgs[j].Author = h
		}
		out.Aliases = append(out.Aliases, Alias{Name: h, Platform: orig.Platform, Messages: msgs})
	}
	return out, mapping
}
