package normalize

import (
	"strings"
	"testing"
	"time"

	"darklight/internal/forum"
)

var t0 = time.Date(2017, 5, 10, 12, 0, 0, 0, time.UTC)

func dataset(aliases ...forum.Alias) *forum.Dataset {
	d := forum.NewDataset("Test", forum.PlatformReddit)
	for _, a := range aliases {
		d.Add(a)
	}
	return d
}

func alias(name string, bodies ...string) forum.Alias {
	a := forum.Alias{Name: name}
	for i, b := range bodies {
		a.Messages = append(a.Messages, forum.Message{
			ID: name + "-" + string(rune('a'+i)), Author: name, Body: b,
			PostedAt: t0.Add(time.Duration(i) * time.Hour),
		})
	}
	return a
}

// applyStep runs one step's alias form over every alias of d, dropping the
// aliases it removes — what the pipeline's worker loop does for one step.
func applyStep(d *forum.Dataset, step func(*forum.Alias, *StepReport) bool) StepReport {
	var sr StepReport
	kept := d.Aliases[:0]
	for i := range d.Aliases {
		if !step(&d.Aliases[i], &sr) {
			kept = append(kept, d.Aliases[i])
		}
	}
	d.Aliases = kept
	return sr
}

const english = "this is a perfectly normal english sentence about shipping and quality with plenty of different words"

func TestDropBots(t *testing.T) {
	d := dataset(alias("tipbot", english), alias("alice", english))
	sr := applyStep(d, dropBotsAlias)
	if d.Len() != 1 || d.Aliases[0].Name != "alice" {
		t.Errorf("kept %v", d.Names())
	}
	if sr.AliasesRemoved != 1 {
		t.Error("report must count the removed bot")
	}
}

func TestDedupMessages(t *testing.T) {
	a := alias("v", "same exact showcase message", "same exact showcase message", "a different message entirely")
	// Make the duplicate earlier so dedup must keep the earliest timestamp.
	a.Messages[1].PostedAt = t0.Add(-time.Hour)
	d := dataset(a)
	applyStep(d, dedupMessagesAlias)
	if len(d.Aliases[0].Messages) != 2 {
		t.Fatalf("kept %d messages", len(d.Aliases[0].Messages))
	}
	if !d.Aliases[0].Messages[0].PostedAt.Equal(t0.Add(-time.Hour)) {
		t.Error("dedup must keep the earliest posting time")
	}
}

func TestNormalizeURLStep(t *testing.T) {
	tests := []struct{ in, want string }{
		{"https://www.reddit.com/r/x/comments/1", "reddit.com"},
		{"http://lchudifyeqm4ldjj.onion/forum?x=1", "lchudifyeqm4ldjj.onion"},
		{"ftp://Files.Example.ORG/pub", "files.example.org"},
	}
	for _, tt := range tests {
		if got := NormalizeURL(tt.in); got != tt.want {
			t.Errorf("NormalizeURL(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
	d := dataset(alias("a", "check https://www.reddit.com/r/x/comments/1 it rocks"))
	applyStep(d, normalizeURLsAlias)
	if got := d.Aliases[0].Messages[0].Body; got != "check reddit.com it rocks" {
		t.Errorf("body = %q", got)
	}
}

func TestStripQuotesStep(t *testing.T) {
	tests := []struct{ name, in, want string }{
		{"reddit quote lines", "> quoted stuff\nmy own reply here", "my own reply here"},
		{"bb quote", "[quote=bob]their words[/quote] my words", "my words"},
		{"nested bb", "[quote][quote]deep[/quote]outer[/quote] mine", "mine"},
		{"no quotes", "plain text", "plain text"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := StripQuoteText(tt.in); got != tt.want {
				t.Errorf("StripQuoteText = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestStripEditMarks(t *testing.T) {
	d := dataset(alias("bob", "my real content here\nEdit by bob: fixed typo"))
	applyStep(d, stripEditMarksAlias)
	got := d.Aliases[0].Messages[0].Body
	if strings.Contains(got, "Edit") || strings.Contains(got, "bob:") {
		t.Errorf("edit mark survived: %q", got)
	}
	if !strings.Contains(got, "my real content here") {
		t.Errorf("content lost: %q", got)
	}
}

func TestTagMail(t *testing.T) {
	d := dataset(alias("a", "contact me at vendor.supreme+orders@proton-mail.com for info"))
	applyStep(d, tagMailAlias)
	got := d.Aliases[0].Messages[0].Body
	if !strings.Contains(got, MailTag) || strings.Contains(got, "@") {
		t.Errorf("mail not tagged: %q", got)
	}
}

func TestStripPGPStep(t *testing.T) {
	body := "verify my key\n-----BEGIN PGP PUBLIC KEY BLOCK-----\nAAA\n-----END PGP PUBLIC KEY BLOCK-----\nthanks"
	d := dataset(alias("a", body))
	applyStep(d, stripPGPAlias)
	got := d.Aliases[0].Messages[0].Body
	if strings.Contains(got, "PGP") {
		t.Errorf("PGP block survived: %q", got)
	}
}

func TestDropLongWords(t *testing.T) {
	art := strings.Repeat("=", 50)
	d := dataset(alias("a", "before "+art+" after"))
	applyStep(d, dropLongWordsAlias)
	got := d.Aliases[0].Messages[0].Body
	if strings.Contains(got, "=") {
		t.Errorf("long token survived: %q", got)
	}
	if got != "before after" {
		t.Errorf("body = %q", got)
	}
}

func TestDropShortAndSpam(t *testing.T) {
	d := dataset(alias("a",
		"short msg",                    // < 10 words
		english,                        // fine
		strings.Repeat("buy now ", 10), // ratio 2/20 = 0.1 → spam
	))
	applyStep(d, dropShortAlias)
	applyStep(d, dropSpamAlias)
	if len(d.Aliases[0].Messages) != 1 {
		t.Fatalf("kept %d messages", len(d.Aliases[0].Messages))
	}
	if d.Aliases[0].Messages[0].Body != english {
		t.Error("wrong message survived")
	}
}

func TestEnglishOnly(t *testing.T) {
	d := dataset(alias("a",
		english,
		"la calidad era buena pero el envío tardó demasiado tiempo esta vez la verdad",
	))
	applyStep(d, NewPipeline().englishOnlyAlias)
	if len(d.Aliases[0].Messages) != 1 {
		t.Fatalf("kept %d messages", len(d.Aliases[0].Messages))
	}
	if d.Aliases[0].Messages[0].Body != english {
		t.Error("wrong message survived")
	}
}

func TestFullPipelineIntegration(t *testing.T) {
	raw := dataset(
		alias("modbot", english, english),
		alias("carol",
			"> someone else wrote this\n"+english+" 😂 see https://www.example.com/thing now",
			english+" and more words to be safe",
			"ok", // too short → dropped
		),
	)
	p := NewPipeline()
	rep := p.Run(raw)
	if raw.Len() != 1 {
		t.Fatalf("aliases after pipeline: %v", raw.Names())
	}
	carol := raw.Aliases[0]
	if len(carol.Messages) != 2 {
		t.Fatalf("carol kept %d messages", len(carol.Messages))
	}
	for _, m := range carol.Messages {
		if strings.Contains(m.Body, ">") || strings.Contains(m.Body, "😂") ||
			strings.Contains(m.Body, "https://") {
			t.Errorf("dirty body survived: %q", m.Body)
		}
	}
	if len(rep.Steps) != 13 { // 12 steps + final empty-alias sweep
		t.Errorf("report has %d steps", len(rep.Steps))
	}
	if !strings.Contains(rep.String(), "drop-bots") {
		t.Error("report rendering broken")
	}
}

func TestPipelineStepOrder(t *testing.T) {
	steps := NewPipeline().Steps()
	if len(steps) != 12 {
		t.Fatalf("pipeline has %d steps", len(steps))
	}
	// Mutating steps must precede the filters that measure the text.
	idx := map[string]int{}
	for i, s := range steps {
		idx[s] = i
	}
	for _, mutator := range []string{"strip-quotes", "strip-pgp", "normalize-urls", "strip-emoji"} {
		for _, filter := range []string{"drop-short", "drop-spam", "english-only"} {
			if idx[mutator] > idx[filter] {
				t.Errorf("%s must run before %s", mutator, filter)
			}
		}
	}
}

func TestEmptyDatasetPipeline(t *testing.T) {
	d := forum.NewDataset("Empty", forum.PlatformReddit)
	rep := NewPipeline().Run(d)
	if d.Len() != 0 || rep == nil {
		t.Error("empty dataset must pass through")
	}
}
