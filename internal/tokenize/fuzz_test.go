package tokenize

import (
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// fuzzSeeds are FuzzTokenize's seed corpus.
var fuzzSeeds = []string{
	"",
	"plain words only",
	"Don't re-tokenize e-mail addresses like bob@example.com, ever.",
	"visit https://www.reddit.com/r/test?x=1) or www.example.onion now",
	"prices: 1,000.50 at 12:30 vs 3.14",
	"emoji \U0001F600\U0001F3F4 mixed ❤️ text",
	"-----BEGIN PGP PUBLIC KEY BLOCK-----\nABCDEF\n-----END PGP PUBLIC KEY BLOCK-----\ntrailing",
	"-----BEGIN PGP MESSAGE-----\ntruncated mid key",
	"unicode wörds größer łódź 東京 привет",
	"weird..dots...everywhere and trailing' apostrophes'",
	"\x00\xff\xfe invalid \x80 utf8 bytes",
	"ftp://host/path, (https://a.b)",
}

// FuzzTokenize hammers the hand-written scanner with arbitrary input and
// checks its structural invariants: every token is a non-empty substring of
// the input at its recorded offset, offsets strictly increase, kinds are
// valid, Words keeps exactly the lowercased word tokens, and the other
// helper passes (StripEmoji, StripPGP) neither panic nor violate their
// postconditions.
func FuzzTokenize(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		toks := Tokenize(text)
		prev := -1
		for i, tok := range toks {
			if tok.Text == "" {
				t.Fatalf("token %d is empty", i)
			}
			if tok.Pos < 0 || tok.Pos+len(tok.Text) > len(text) {
				t.Fatalf("token %d out of range: pos=%d len=%d text-len=%d", i, tok.Pos, len(tok.Text), len(text))
			}
			if text[tok.Pos:tok.Pos+len(tok.Text)] != tok.Text {
				t.Fatalf("token %d is not the substring at its Pos", i)
			}
			if tok.Pos <= prev {
				t.Fatalf("token %d does not advance: pos=%d prev=%d", i, tok.Pos, prev)
			}
			prev = tok.Pos
			if tok.Kind < KindWord || tok.Kind > KindEmoji {
				t.Fatalf("token %d has invalid kind %d", i, tok.Kind)
			}
		}

		if words, want := Words(text), tokenWords(toks); !slices.Equal(words, want) {
			t.Fatalf("Words = %q, the lowercased word tokens = %q", words, want)
		}

		stripped := StripEmoji(text)
		if strings.ContainsFunc(stripped, IsEmoji) {
			t.Fatal("StripEmoji left an emoji rune behind")
		}
		if utf8.ValidString(text) && !utf8.ValidString(stripped) {
			t.Fatal("StripEmoji corrupted valid UTF-8")
		}

		depgp := StripPGP(text)
		if ContainsPGP(depgp) {
			t.Fatal("StripPGP left an armored block delimiter behind")
		}
		// Stripping must converge: a second pass is a no-op.
		if again := StripPGP(depgp); again != depgp {
			t.Fatal("StripPGP is not idempotent")
		}
	})
}

// tokenWords is Words spelled out from Tokenize's tokens.
func tokenWords(toks []Token) []string {
	var out []string
	for _, tok := range toks {
		if tok.Kind == KindWord {
			out = append(out, strings.ToLower(tok.Text))
		}
	}
	return out
}

// TestWordsMatchTokenize: Words, which builds no token slice, keeps
// exactly the lowercased word tokens of Tokenize.
func TestWordsMatchTokenize(t *testing.T) {
	for _, text := range fuzzSeeds {
		if got, want := Words(text), tokenWords(Tokenize(text)); !slices.Equal(got, want) {
			t.Errorf("Words(%q) = %q, want %q", text, got, want)
		}
	}
}
