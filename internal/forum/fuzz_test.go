package forum

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// FuzzReadJSONL feeds arbitrary bytes through the JSONL loader and, for any
// input it accepts, requires the Read → Write → Read round trip to be
// idempotent: the first serialisation is a fixed point. Malformed lines
// must produce an error, never a panic.
func FuzzReadJSONL(f *testing.F) {
	valid := func(msgs ...Message) []byte {
		var b bytes.Buffer
		d := NewDataset("seed", PlatformSynthetic)
		for _, m := range msgs {
			d.Add(Alias{Name: m.Author, Platform: PlatformSynthetic, Messages: []Message{m}})
		}
		if err := WriteJSONL(&b, d); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	ts := time.Date(2017, 5, 1, 12, 0, 0, 0, time.UTC)
	f.Add(valid(
		Message{ID: "1", Author: "alice", Board: "b", Body: "hello there", PostedAt: ts},
		Message{ID: "2", Author: "bob", Body: "another message", PostedAt: ts.Add(time.Hour)},
	))
	f.Add([]byte(`{"id":"1","author":"a","body":"x"}` + "\n\n" + `{"id":"2","author":"a","body":"y"}`))
	f.Add([]byte(`{"id":"1","body":"no author"}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"id":"1","author":"a","posted_at":"bogus"}`))
	f.Add([]byte("{}\n{}"))
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadJSONL(bytes.NewReader(data), "fuzz", PlatformSynthetic)
		if err != nil {
			return // malformed input may be rejected, just never panic
		}
		var first bytes.Buffer
		if err := WriteJSONL(&first, d); err != nil {
			t.Fatalf("write of accepted dataset failed: %v", err)
		}
		d2, err := ReadJSONL(bytes.NewReader(first.Bytes()), "fuzz", PlatformSynthetic)
		if err != nil {
			t.Fatalf("re-read of written output failed: %v", err)
		}
		if d2.Len() != d.Len() {
			t.Fatalf("round trip changed alias count: %d -> %d", d.Len(), d2.Len())
		}
		var second bytes.Buffer
		if err := WriteJSONL(&second, d2); err != nil {
			t.Fatalf("second write failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Read→Write→Read is not idempotent:\nfirst  %q\nsecond %q", first.Bytes(), second.Bytes())
		}
	})
}

// referenceDistinctWordRatio is the spam ratio spelled out with
// strings.Fields, strings.ToLower and a fresh map.
func referenceDistinctWordRatio(body string) float64 {
	fields := strings.Fields(body)
	if len(fields) == 0 {
		return 0
	}
	seen := make(map[string]struct{}, len(fields))
	for _, f := range fields {
		seen[strings.ToLower(f)] = struct{}{}
	}
	return float64(len(seen)) / float64(len(fields))
}

// FuzzDistinctWordRatio: the in-place walk over a pooled set gives the
// reference's ratio bit for bit — the same words, folded the same way.
func FuzzDistinctWordRatio(f *testing.F) {
	for _, s := range []string{
		"", "   ", "spam spam spam eggs", "Spam SPAM spam", "a\u00a0b\u2003c\u0085d a b",
		"x\xffy \xfe z \xff \xfe \xef\xbf\xbd", "İstanbul istanbul i̇stanbul", "ǅ ǆ Ǆ",
		"caf\u00e9 CAF\u00c9 na\u00efve\u3000\u65e5\u672c", "\v\f\r lead and trail \r\n",
		"K k \u212a", "emoji \U0001F600 \U0001F600 ❤️",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		m := Message{Body: body}
		if got, want := m.DistinctWordRatio(), referenceDistinctWordRatio(body); got != want {
			t.Fatalf("DistinctWordRatio(%q) = %v, reference = %v", body, got, want)
		}
	})
}
