package forum

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func msg(id, author, body string, t time.Time) Message {
	return Message{ID: id, Author: author, Body: body, PostedAt: t}
}

var t0 = time.Date(2017, 3, 1, 12, 0, 0, 0, time.UTC)

func TestMessageWordCount(t *testing.T) {
	tests := []struct {
		name string
		body string
		want int
	}{
		{"empty", "", 0},
		{"single", "hello", 1},
		{"multiple", "one two three", 3},
		{"extra whitespace", "  one\t two \n three  ", 3},
		{"punctuation attached", "well, ok then.", 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := Message{Body: tt.body}
			if got := m.WordCount(); got != tt.want {
				t.Errorf("WordCount(%q) = %d, want %d", tt.body, got, tt.want)
			}
		})
	}
}

// TestWordsAreStringsFields: WordCount and AppendWords split a body where
// strings.Fields does — ASCII and Unicode spaces, invalid UTF-8 inside a
// word — and AppendWords joins the first n words as strings.Join does.
func TestWordsAreStringsFields(t *testing.T) {
	bodies := []string{
		"", "   ", "one", " one  two\tthree\n", "a\u00a0b\u2003c\u0085d", "x\xffy \xfe z",
		"caf\u00e9 na\u00efve\u3000\u65e5\u672c", "\v\f\r lead and trail \r\n",
	}
	for _, body := range bodies {
		m := Message{Body: body}
		fields := strings.Fields(body)
		if got := m.WordCount(); got != len(fields) {
			t.Errorf("WordCount(%q) = %d, want %d", body, got, len(fields))
		}
		for n := 0; n <= len(fields)+1; n++ {
			want := strings.Join(fields[:min(n, len(fields))], " ")
			if got := string(m.AppendWords([]byte("kept|"), n)); got != "kept|"+want {
				t.Errorf("AppendWords(%q, %d) = %q, want %q", body, n, got, "kept|"+want)
			}
		}
	}
}

func TestMessageDistinctWordRatio(t *testing.T) {
	tests := []struct {
		name string
		body string
		want float64
	}{
		{"empty", "", 0},
		{"all distinct", "a b c d", 1},
		{"half", "a a b b", 0.5},
		{"case folded", "Spam spam SPAM spam", 0.25},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := Message{Body: tt.body}
			if got := m.DistinctWordRatio(); got != tt.want {
				t.Errorf("DistinctWordRatio(%q) = %v, want %v", tt.body, got, tt.want)
			}
		})
	}
}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// TestDistinctWordRatioAllocation: on a lowercase-ASCII message the spam
// filter copies no word and reuses its set, so it allocates nothing.
func TestDistinctWordRatioAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	m := Message{Body: strings.Repeat("the vendor shipped fast and the stealth was good, would order again ", 8)}
	want := referenceDistinctWordRatio(m.Body)
	allocs := testing.AllocsPerRun(100, func() {
		if got := m.DistinctWordRatio(); got != want {
			t.Fatalf("DistinctWordRatio = %v, want %v", got, want)
		}
	})
	if allocs >= 1 {
		t.Errorf("DistinctWordRatio of a %d-word lowercase message allocated %v times a call, want 0", m.WordCount(), allocs)
	}
}

func TestAliasIsLikelyBot(t *testing.T) {
	tests := []struct {
		name string
		want bool
	}{
		{"tipbot", true},
		{"bot_master", true},
		{"AutoModBot", true},
		{"tipbot3000", true},
		{"botanica", true}, // prefix rule matches; acceptable false positive by design
		{"alice", false},
		{"robotics_fan", false},
		{"abbot2", true}, // suffix after digit strip
	}
	for _, tt := range tests {
		a := Alias{Name: tt.name}
		if got := a.IsLikelyBot(); got != tt.want {
			t.Errorf("IsLikelyBot(%q) = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestAliasTotalWordsAndText(t *testing.T) {
	a := Alias{Messages: []Message{
		msg("1", "x", "one two", t0),
		msg("2", "x", "three", t0.Add(time.Hour)),
	}}
	if got := a.TotalWords(); got != 3 {
		t.Errorf("TotalWords = %d, want 3", got)
	}
	if got := a.Text(); got != "one two\nthree" {
		t.Errorf("Text = %q", got)
	}
}

func TestDatasetBasics(t *testing.T) {
	d := NewDataset("Test", PlatformReddit)
	d.Add(Alias{Name: "alice", Messages: []Message{msg("1", "alice", "hi there friend", t0)}})
	d.Add(Alias{Name: "bob", Messages: []Message{msg("2", "bob", "yo", t0), msg("3", "bob", "hello again", t0)}})

	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
	if got := d.TotalMessages(); got != 3 {
		t.Errorf("TotalMessages = %d", got)
	}
	if got := d.TotalWords(); got != 6 {
		t.Errorf("TotalWords = %d", got)
	}
	if d.Aliases[0].Platform != PlatformReddit {
		t.Error("Add should force the dataset platform")
	}
	a, err := d.Find("bob")
	if err != nil || a.Name != "bob" {
		t.Errorf("Find(bob) = %v, %v", a, err)
	}
	if _, err := d.Find("carol"); err == nil {
		t.Error("Find(carol) should fail")
	}
	names := d.Names()
	if len(names) != 2 || names[0] != "alice" {
		t.Errorf("Names = %v", names)
	}
}

func TestDatasetFilter(t *testing.T) {
	d := NewDataset("Test", PlatformReddit)
	d.Add(Alias{Name: "keep", Messages: []Message{msg("1", "keep", "a b c", t0)}})
	d.Add(Alias{Name: "drop"})
	out := d.Filter(func(a *Alias) bool { return len(a.Messages) > 0 })
	if out.Len() != 1 || out.Aliases[0].Name != "keep" {
		t.Errorf("Filter kept %v", out.Names())
	}
	if d.Len() != 2 {
		t.Error("Filter must not mutate the original")
	}
}

func TestMergeRenamesConsistently(t *testing.T) {
	a := NewDataset("TMG", PlatformTheMajesticGarden)
	a.Add(Alias{Name: "x"})
	b := NewDataset("DM", PlatformDreamMarket)
	b.Add(Alias{Name: "x"})
	merged := Merge("DarkWeb", PlatformSynthetic, a, b)
	if merged.Len() != 2 {
		t.Fatalf("Len = %d", merged.Len())
	}
	if merged.Aliases[0].Name != "x@tmg" || merged.Aliases[1].Name != "x@dm" {
		t.Errorf("names = %v", merged.Names())
	}
	// Merging a subset must produce the same names for the same aliases.
	sub := Merge("Sub", PlatformSynthetic, b)
	if sub.Aliases[0].Name != "x@dm" {
		t.Errorf("subset merge name = %q", sub.Aliases[0].Name)
	}
}

func TestAnonymize(t *testing.T) {
	d := NewDataset("Test", PlatformDreamMarket)
	d.Add(Alias{Name: "secret_vendor", Messages: []Message{msg("1", "secret_vendor", "hello", t0)}})
	anon, mapping := d.Anonymize()
	if anon.Aliases[0].Name == "secret_vendor" {
		t.Error("nickname not hashed")
	}
	if anon.Aliases[0].Messages[0].Author == "secret_vendor" {
		t.Error("message author not hashed")
	}
	if mapping[anon.Aliases[0].Name] != "secret_vendor" {
		t.Error("mapping must invert the hash")
	}
	if d.Aliases[0].Messages[0].Author != "secret_vendor" {
		t.Error("original dataset must be untouched")
	}
	if HashNickname("a") == HashNickname("b") {
		t.Error("distinct names must hash differently")
	}
}

func TestPlatformRoundtrip(t *testing.T) {
	for _, p := range []Platform{PlatformReddit, PlatformTheMajesticGarden, PlatformDreamMarket, PlatformSynthetic, PlatformUnknown} {
		got, err := ParsePlatform(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePlatform(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePlatform("nonsense"); err == nil {
		t.Error("ParsePlatform(nonsense) should fail")
	}
}

func TestJSONLRoundtrip(t *testing.T) {
	d := NewDataset("Test", PlatformDreamMarket)
	d.Add(Alias{Name: "zed", Messages: []Message{
		msg("2", "zed", "second message with\nnewline", t0.Add(time.Minute)),
	}})
	d.Add(Alias{Name: "amy", Messages: []Message{
		msg("1", "amy", `quotes " and unicode ✓`, t0),
	}})

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf, "Test", PlatformDreamMarket)
	if err != nil {
		t.Fatal(err)
	}
	// Readback sorts aliases by name.
	if got.Len() != 2 || got.Aliases[0].Name != "amy" || got.Aliases[1].Name != "zed" {
		t.Fatalf("roundtrip names = %v", got.Names())
	}
	if got.Aliases[0].Messages[0].Body != `quotes " and unicode ✓` {
		t.Errorf("body = %q", got.Aliases[0].Messages[0].Body)
	}
	if !got.Aliases[1].Messages[0].PostedAt.Equal(t0.Add(time.Minute)) {
		t.Error("timestamp lost")
	}
}

func TestReadJSONLErrors(t *testing.T) {
	tests := []struct {
		name  string
		input string
	}{
		{"bad json", "{not json}\n"},
		{"missing author", `{"id":"1","body":"x"}` + "\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadJSONL(strings.NewReader(tt.input), "x", PlatformReddit); err == nil {
				t.Error("expected error")
			}
		})
	}
}

// Property: JSONL round-trips any dataset whose messages have non-empty
// authors.
func TestJSONLRoundtripProperty(t *testing.T) {
	f := func(bodies []string) bool {
		d := NewDataset("P", PlatformReddit)
		for i, body := range bodies {
			author := "user" + string(rune('a'+i%5))
			d.Add(Alias{Name: author, Messages: []Message{
				{ID: itoa(i), Author: author, Body: body, PostedAt: t0.Add(time.Duration(i) * time.Minute)},
			}})
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, d); err != nil {
			return false
		}
		got, err := ReadJSONL(&buf, "P", PlatformReddit)
		if err != nil {
			return false
		}
		return got.TotalMessages() == d.TotalMessages()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func itoa(i int) string {
	return string(rune('0'+i%10)) + string(rune('0'+(i/10)%10))
}
