// Package normalize implements the data-polishing pipeline of §III-C of
// the paper — the twelve steps that turn raw scraped forum data into
// analysable text:
//
//  1. drop accounts whose nickname starts or ends with "bot"
//  2. drop duplicate messages (vendor reposts, Reddit cross-posts)
//  3. normalise URLs to their hostname
//  4. strip emoji
//  5. drop messages shorter than 10 words
//  6. drop messages whose distinct-word ratio is below 0.5 (spam)
//  7. keep only messages written in English
//  8. strip quoted text (keep only what the account holder wrote)
//  9. strip "Edit by <username>" markers
//  10. replace mail addresses with the "_mail_" tag
//  11. strip armored PGP keys
//  12. drop words longer than 34 characters (ASCII art, unarmored keys)
//
// Each step is a named Step value; the Report records what every step
// removed, which the tests and the experiment harness use.
//
// # Execution
//
// Every step is alias-local: it reads and writes one alias at a time and
// never looks across aliases (deduplication is per-alias — vendors repost
// their own showcase). Running the whole step chain on alias A and then on
// alias B is therefore indistinguishable from running each step over all
// aliases in turn, and the Report's counters are plain integer sums, which
// commute. Pipeline.Run is built on this: the aliases fan out over
// contiguous chunks, one per worker, each worker runs the full step chain
// per alias into a private per-step counter block, and the merge sums the
// blocks in step order. One worker is the same loop over one chunk, so the
// result — surviving aliases, message bodies, and every Report counter — is
// bit-identical for any worker count.
//
// Under an obs.Tracer a run is one "polish" span with one "polish.worker"
// span per worker nested in it.
package normalize

import (
	"context"
	"fmt"
	"net/url"
	"regexp"
	"runtime"
	"strings"
	"sync"

	"darklight/internal/forum"
	"darklight/internal/langdetect"
	"darklight/internal/obs"
	"darklight/internal/tokenize"
)

// Pipeline metrics. Values are derived from the merged Report counters —
// plain integer sums — so the exposed series are identical for any worker
// count.
var (
	mPolishRuns   = obs.Default().Counter("polish_runs_total", "completed polish pipeline runs")
	mStepAliases  = obs.Default().CounterVec("polish_step_aliases_removed_total", "aliases removed per polish step", "step")
	mStepRemoved  = obs.Default().CounterVec("polish_step_messages_removed_total", "messages removed per polish step", "step")
	mStepModified = obs.Default().CounterVec("polish_step_messages_modified_total", "messages modified per polish step", "step")
	mStepBytesIn  = obs.Default().CounterVec("polish_step_bytes_in_total", "message-body bytes entering each polish step", "step")
	mStepBytesOut = obs.Default().CounterVec("polish_step_bytes_out_total", "message-body bytes surviving each polish step", "step")
	mLangdetect   = obs.Default().CounterVec("polish_langdetect_messages_total", "messages classified by the language detector (english-only step)", "result")
	mLangEnglish  = mLangdetect.With("english")
	mLangRejected = mLangdetect.With("rejected")
)

// Defaults for the paper's thresholds.
const (
	// MinWords is the minimum message length in words (step 5).
	MinWords = 10
	// MinDistinctRatio is the spam threshold of step 6.
	MinDistinctRatio = 0.5
	// MaxWordLen is the longest token kept by step 12.
	MaxWordLen = 34
	// MailTag replaces email addresses (step 10).
	MailTag = "_mail_"
	// MinEnglishProb is the language-detector confidence needed to keep a
	// message as English (step 7).
	MinEnglishProb = 0.50
)

// Step is one polishing stage.
type Step struct {
	// Name identifies the step ("strip-emoji").
	Name string
	// Paper is the step number in §III-C.
	Paper int
	// applyAlias runs the step on one alias in place: it accumulates what it
	// changed into sr and reports whether the alias itself is removed.
	applyAlias func(a *forum.Alias, sr *StepReport) bool
}

// Report accumulates per-step statistics.
type Report struct {
	// Steps lists per-step effects in execution order.
	Steps []StepReport
}

// StepReport describes what one step changed. BytesIn/BytesOut are the
// message-body bytes entering and surviving the step — the per-step byte
// deltas the polish metrics export. Both are integer sums over aliases,
// so the merge over workers reproduces them exactly.
type StepReport struct {
	Name             string
	AliasesRemoved   int
	MessagesRemoved  int
	MessagesModified int
	BytesIn          int64
	BytesOut         int64
}

// String renders a compact human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	for _, s := range r.Steps {
		fmt.Fprintf(&b, "%-18s aliases-removed=%-5d messages-removed=%-6d modified=%-5d bytes=%d->%d\n",
			s.Name, s.AliasesRemoved, s.MessagesRemoved, s.MessagesModified, s.BytesIn, s.BytesOut)
	}
	return b.String()
}

// Pipeline is an ordered list of steps.
type Pipeline struct {
	steps    []Step
	detector *langdetect.Detector
	workers  int
}

// Option configures a Pipeline.
type Option func(*Pipeline)

// WithWorkers bounds the pipeline's parallelism; n <= 0 means GOMAXPROCS.
// Output is bit-identical for every worker count (see the package comment),
// so this is purely a throughput knob.
func WithWorkers(n int) Option {
	return func(p *Pipeline) { p.workers = n }
}

// NewPipeline returns the full 12-step paper pipeline. Runs are parallel
// over GOMAXPROCS workers by default; WithWorkers adjusts the bound.
func NewPipeline(opts ...Option) *Pipeline {
	p := &Pipeline{detector: langdetect.Default()}
	for _, o := range opts {
		o(p)
	}
	p.steps = []Step{
		{Name: "drop-bots", Paper: 1, applyAlias: dropBotsAlias},
		{Name: "dedup-messages", Paper: 2, applyAlias: dedupMessagesAlias},
		{Name: "strip-quotes", Paper: 8, applyAlias: stripQuotesAlias},
		{Name: "strip-edit-marks", Paper: 9, applyAlias: stripEditMarksAlias},
		{Name: "strip-pgp", Paper: 11, applyAlias: stripPGPAlias},
		{Name: "tag-mail", Paper: 10, applyAlias: tagMailAlias},
		{Name: "normalize-urls", Paper: 3, applyAlias: normalizeURLsAlias},
		{Name: "strip-emoji", Paper: 4, applyAlias: stripEmojiAlias},
		{Name: "drop-long-words", Paper: 12, applyAlias: dropLongWordsAlias},
		{Name: "english-only", Paper: 7, applyAlias: p.englishOnlyAlias},
		{Name: "drop-short", Paper: 5, applyAlias: dropShortAlias},
		{Name: "drop-spam", Paper: 6, applyAlias: dropSpamAlias},
	}
	return p
}

// Steps returns the step names in execution order.
func (p *Pipeline) Steps() []string {
	names := make([]string, len(p.steps))
	for i, s := range p.steps {
		names[i] = s.Name
	}
	return names
}

// Run executes every step in order and returns the report. The dataset is
// modified in place; aliases left with zero messages are removed at the end.
//
// The execution order differs from the paper's listing order: text-mutating
// steps (quotes, PGP, mail, URLs, emoji) run before the filters that
// measure length, spam ratio, and language, so the filters see the text the
// feature extractor will see.
func (p *Pipeline) Run(d *forum.Dataset) *Report {
	return p.RunContext(context.Background(), d)
}

// RunContext is Run under a context that may carry an obs.Tracer. The
// dataset, the report — including the byte deltas — and every exported
// metric are bit-identical with tracing on or off, and for any worker count.
//
// The aliases fan out over contiguous chunks, one per worker. Each worker
// runs the full step chain alias by alias into a private per-step counter
// block; blocks merge by integer summation in step order, and dropped
// aliases are compacted in input order. An empty dataset starts no worker
// and still reports every step.
func (p *Pipeline) RunContext(ctx context.Context, d *forum.Dataset) *Report {
	ctx, root := obs.Start(ctx, "polish")
	defer root.End()
	n := d.Len()
	root.AddItems(int64(n))

	workers := p.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	accs := make([][]StepReport, workers)
	dropped := make([]bool, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		acc := make([]StepReport, len(p.steps))
		accs[w] = acc
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, sp := obs.Start(ctx, "polish.worker")
			sp.SetWorker(w)
			sp.AddItems(int64(hi - lo))
			defer sp.End()
			for i := lo; i < hi; i++ {
				a := &d.Aliases[i]
				for si := range p.steps {
					acc[si].BytesIn += aliasBytes(a)
					if p.steps[si].applyAlias(a, &acc[si]) {
						dropped[i] = true
						break
					}
					acc[si].BytesOut += aliasBytes(a)
				}
			}
		}()
	}
	wg.Wait()
	r := &Report{Steps: make([]StepReport, len(p.steps))}
	for si := range p.steps {
		m := &r.Steps[si]
		m.Name = p.steps[si].Name
		for w := range accs {
			m.AliasesRemoved += accs[w][si].AliasesRemoved
			m.MessagesRemoved += accs[w][si].MessagesRemoved
			m.MessagesModified += accs[w][si].MessagesModified
			m.BytesIn += accs[w][si].BytesIn
			m.BytesOut += accs[w][si].BytesOut
		}
	}
	// Final sweep: drop the aliases a step removed and those that lost all
	// messages (the latter carry zero bytes, so BytesIn == BytesOut == the
	// surviving corpus size).
	var bytes int64
	removed := 0
	kept := d.Aliases[:0]
	for i := range d.Aliases {
		if dropped[i] {
			continue
		}
		if len(d.Aliases[i].Messages) == 0 {
			removed++
			continue
		}
		bytes += aliasBytes(&d.Aliases[i])
		kept = append(kept, d.Aliases[i])
	}
	d.Aliases = kept
	r.Steps = append(r.Steps, StepReport{Name: "drop-empty-aliases", AliasesRemoved: removed, BytesIn: bytes, BytesOut: bytes})
	exportReport(r)
	return r
}

// exportReport folds the merged report into the polish metrics.
func exportReport(r *Report) {
	for i := range r.Steps {
		s := &r.Steps[i]
		mStepAliases.With(s.Name).Add(int64(s.AliasesRemoved))
		mStepRemoved.With(s.Name).Add(int64(s.MessagesRemoved))
		mStepModified.With(s.Name).Add(int64(s.MessagesModified))
		mStepBytesIn.With(s.Name).Add(s.BytesIn)
		mStepBytesOut.With(s.Name).Add(s.BytesOut)
	}
	mPolishRuns.Inc()
}

// aliasBytes sums one alias's message-body bytes.
func aliasBytes(a *forum.Alias) int64 {
	var n int64
	for i := range a.Messages {
		n += int64(len(a.Messages[i].Body))
	}
	return n
}

// --- step 1: bots ---

func dropBotsAlias(a *forum.Alias, sr *StepReport) bool {
	if !a.IsLikelyBot() {
		return false
	}
	sr.AliasesRemoved++
	sr.MessagesRemoved += len(a.Messages)
	return true
}

// --- step 2: duplicates ---

// dedupMessagesAlias removes duplicate bodies per alias (vendors repost
// their showcase; redditors cross-post across subreddits). The first
// occurrence by timestamp wins so activity profiles keep the original
// posting time.
func dedupMessagesAlias(a *forum.Alias, sr *StepReport) bool {
	seen := make(map[string]int, len(a.Messages)) // body → index of kept msg
	kept := a.Messages[:0]
	for _, m := range a.Messages {
		key := strings.TrimSpace(m.Body)
		if j, dup := seen[key]; dup {
			if m.PostedAt.Before(kept[j].PostedAt) {
				kept[j] = m
			}
			sr.MessagesRemoved++
			continue
		}
		seen[key] = len(kept)
		kept = append(kept, m)
	}
	a.Messages = kept
	return false
}

// --- step 3: URLs ---

var schemeURLRe = regexp.MustCompile(`(?i)\b(?:https?|ftp)://[^\s<>"')\]]+`)

// NormalizeURL reduces a URL to its hostname ("https://www.reddit.com/r/x"
// → "reddit"-style hostname per the paper; we keep the full hostname,
// dropping scheme, path, query and the "www." prefix).
func NormalizeURL(raw string) string {
	u, err := url.Parse(raw)
	if err != nil || u.Host == "" {
		// Fall back to manual trimming for malformed URLs.
		s := raw
		if i := strings.Index(s, "://"); i >= 0 {
			s = s[i+3:]
		}
		if i := strings.IndexAny(s, "/?#"); i >= 0 {
			s = s[:i]
		}
		return strings.TrimPrefix(strings.ToLower(s), "www.")
	}
	return strings.TrimPrefix(strings.ToLower(u.Hostname()), "www.")
}

func normalizeURLsAlias(a *forum.Alias, sr *StepReport) bool {
	for j := range a.Messages {
		m := &a.Messages[j]
		// The pattern requires a literal "://"; most bodies have none, and
		// the substring probe is far cheaper than the regexp engine.
		if !strings.Contains(m.Body, "://") {
			continue
		}
		out := schemeURLRe.ReplaceAllStringFunc(m.Body, NormalizeURL)
		if out != m.Body {
			m.Body = out
			sr.MessagesModified++
		}
	}
	return false
}

// --- step 4: emoji ---

func stripEmojiAlias(a *forum.Alias, sr *StepReport) bool {
	for j := range a.Messages {
		m := &a.Messages[j]
		out := tokenize.StripEmoji(m.Body)
		if out != m.Body {
			m.Body = out
			sr.MessagesModified++
		}
	}
	return false
}

// --- step 5: short messages ---

func dropShortAlias(a *forum.Alias, sr *StepReport) bool {
	kept := a.Messages[:0]
	for _, m := range a.Messages {
		if m.WordCount() < MinWords {
			sr.MessagesRemoved++
			continue
		}
		kept = append(kept, m)
	}
	a.Messages = kept
	return false
}

// --- step 6: spam ratio ---

func dropSpamAlias(a *forum.Alias, sr *StepReport) bool {
	kept := a.Messages[:0]
	for _, m := range a.Messages {
		if m.DistinctWordRatio() < MinDistinctRatio {
			sr.MessagesRemoved++
			continue
		}
		kept = append(kept, m)
	}
	a.Messages = kept
	return false
}

// --- step 7: language ---

// englishOnlyAlias shares p.detector across workers — the detector is
// immutable after construction and documented concurrency-safe (see
// langdetect.Detector and its race test).
func (p *Pipeline) englishOnlyAlias(a *forum.Alias, sr *StepReport) bool {
	kept := a.Messages[:0]
	for _, m := range a.Messages {
		if !p.detector.IsEnglish(m.Body, MinEnglishProb) {
			sr.MessagesRemoved++
			mLangRejected.Inc()
			continue
		}
		mLangEnglish.Inc()
		kept = append(kept, m)
	}
	a.Messages = kept
	return false
}

// --- step 8: quotes ---

// StripQuoteText removes quoted material from a message body: Reddit-style
// "> " lines and BB-style [quote]...[/quote] blocks (nested blocks are
// removed with a depth counter — Go regexps have no lookahead, and the
// naive non-greedy regex pairs an outer opener with an inner closer).
func StripQuoteText(body string) string {
	body = stripBBQuotes(body)
	lines := strings.Split(body, "\n")
	kept := lines[:0]
	for _, ln := range lines {
		if strings.HasPrefix(strings.TrimSpace(ln), ">") {
			continue
		}
		kept = append(kept, ln)
	}
	return strings.TrimSpace(strings.Join(kept, "\n"))
}

// stripBBQuotes removes [quote...]...[/quote] blocks, tracking nesting
// depth. Unbalanced openers discard to end of text (quoted garbage beats
// leaked foreign text); unbalanced closers are dropped as stray markup.
func stripBBQuotes(body string) string {
	lower := strings.ToLower(body)
	var b strings.Builder
	depth := 0
	i := 0
	for i < len(body) {
		switch {
		case strings.HasPrefix(lower[i:], "[quote"):
			end := strings.IndexByte(lower[i:], ']')
			if end < 0 { // unterminated opener tag
				i = len(body)
				continue
			}
			depth++
			i += end + 1
		case strings.HasPrefix(lower[i:], "[/quote]"):
			if depth > 0 {
				depth--
				if depth == 0 {
					b.WriteByte(' ')
				}
			}
			i += len("[/quote]")
		default:
			if depth == 0 {
				b.WriteByte(body[i])
			}
			i++
		}
	}
	return b.String()
}

func stripQuotesAlias(a *forum.Alias, sr *StepReport) bool {
	for j := range a.Messages {
		m := &a.Messages[j]
		body := m.Body
		if m.Quoted != "" {
			body = strings.ReplaceAll(body, m.Quoted, " ")
		}
		var out string
		if strings.IndexByte(body, '>') < 0 && strings.IndexByte(body, '[') < 0 {
			// Without a '>' no line has a quote prefix and without a '[' no
			// BB tag opens, so StripQuoteText reduces to TrimSpace.
			out = strings.TrimSpace(body)
		} else {
			out = StripQuoteText(body)
		}
		if out != m.Body {
			m.Body = out
			sr.MessagesModified++
		}
	}
	return false
}

// --- step 9: edit marks ---

// "Edit by <username>" (and common variants "Edited by X", "EDIT:") up to
// end of line — the platform-added attribution string of §III-C(9).
var editMarkRe = regexp.MustCompile(`(?im)^\s*(?:last\s+)?edit(?:ed)?\s*(?:by\s+\S+|:)?[^\n]*$`)

// containsEditFold reports whether s contains "edit" under ASCII case
// folding — a necessary condition for editMarkRe to match, checked before
// invoking the far costlier regexp engine.
func containsEditFold(s string) bool {
	for i := 0; i+4 <= len(s); i++ {
		if s[i]|0x20 == 'e' && s[i+1]|0x20 == 'd' && s[i+2]|0x20 == 'i' && s[i+3]|0x20 == 't' {
			return true
		}
	}
	return false
}

func stripEditMarksAlias(a *forum.Alias, sr *StepReport) bool {
	for j := range a.Messages {
		m := &a.Messages[j]
		if !containsEditFold(m.Body) {
			// The regexp cannot match, so the step reduces to the trailing
			// TrimSpace (TrimSpace slices, it never allocates).
			if out := strings.TrimSpace(m.Body); out != m.Body {
				m.Body = out
				sr.MessagesModified++
			}
			continue
		}
		out := strings.TrimSpace(editMarkRe.ReplaceAllString(m.Body, ""))
		if out != m.Body {
			m.Body = out
			sr.MessagesModified++
		}
	}
	return false
}

// --- step 10: mail addresses ---

var mailRe = regexp.MustCompile(`[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}`)

func tagMailAlias(a *forum.Alias, sr *StepReport) bool {
	for j := range a.Messages {
		m := &a.Messages[j]
		// An address needs a literal '@'; skip the regexp without one.
		if strings.IndexByte(m.Body, '@') < 0 {
			continue
		}
		out := mailRe.ReplaceAllString(m.Body, MailTag)
		if out != m.Body {
			m.Body = out
			sr.MessagesModified++
		}
	}
	return false
}

// --- step 11: PGP ---

func stripPGPAlias(a *forum.Alias, sr *StepReport) bool {
	for j := range a.Messages {
		m := &a.Messages[j]
		if !tokenize.ContainsPGP(m.Body) {
			continue
		}
		m.Body = tokenize.StripPGP(m.Body)
		sr.MessagesModified++
	}
	return false
}

// --- step 12: overlong words ---

// mayHaveLongWord reports whether any run of non-(ASCII-space) bytes
// exceeds MaxWordLen bytes. A token longer than MaxWordLen runes spans at
// least that many bytes and contains no ASCII whitespace, so a false
// result proves no word can be dropped — without the Fields/Join pass.
func mayHaveLongWord(s string) bool {
	run := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\n', '\v', '\f', '\r':
			run = 0
		default:
			run++
			if run > MaxWordLen {
				return true
			}
		}
	}
	return false
}

func dropLongWordsAlias(a *forum.Alias, sr *StepReport) bool {
	for j := range a.Messages {
		m := &a.Messages[j]
		if !mayHaveLongWord(m.Body) {
			continue
		}
		fields := strings.Fields(m.Body)
		changed := false
		kept := fields[:0]
		for _, f := range fields {
			if len([]rune(f)) > MaxWordLen {
				changed = true
				continue
			}
			kept = append(kept, f)
		}
		if changed {
			m.Body = strings.Join(kept, " ")
			sr.MessagesModified++
		}
	}
	return false
}
