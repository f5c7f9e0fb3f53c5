// Package tokenize breaks forum text into linguistic units: words, numbers,
// punctuation, symbols, URLs, email addresses, and emoji. Forum text is
// messy — inconsistent spacing, slang, ASCII art, armored PGP keys — so the
// tokeniser is hand-written rather than a regexp pile: one pass, no
// backtracking, Unicode-aware.
//
// The token stream drives both the polishing pipeline (URL normalisation,
// mail tagging, emoji stripping) and feature extraction (word and character
// n-grams, punctuation/digit/special-character frequencies).
package tokenize

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Kind classifies a token.
type Kind int

// Token kinds. KindWord covers alphabetic runs with internal apostrophes
// and hyphens ("don't", "e-mail"); KindNumber covers digit runs with
// internal separators ("1,000", "3.14"); KindEmoji covers emoji and other
// pictographic code points.
const (
	KindWord Kind = iota + 1
	KindNumber
	KindPunct
	KindSymbol
	KindURL
	KindEmail
	KindEmoji
)

var kindNames = [...]string{"", "word", "number", "punct", "symbol", "url", "email", "emoji"}

// String returns the lowercase kind name.
func (k Kind) String() string {
	if k >= 1 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "invalid"
}

// Token is one unit of text with its classification and byte offset into
// the original string.
type Token struct {
	Text string
	Kind Kind
	Pos  int
}

// Tokenize splits text into tokens. Whitespace never appears in the output.
func Tokenize(text string) []Token {
	var toks []Token
	for tok, i, ok := next(text, 0); ok; tok, i, ok = next(text, i) {
		toks = append(toks, tok)
	}
	return toks
}

// Words returns only the word tokens of text, lowercased. It is the common
// fast path for n-gram extraction: it scans as Tokenize does but keeps no
// token besides the words.
func Words(text string) []string {
	var out []string
	for tok, i, ok := next(text, 0); ok; tok, i, ok = next(text, i) {
		if tok.Kind == KindWord {
			out = append(out, strings.ToLower(tok.Text))
		}
	}
	return out
}

// next is the tokenizer's one scanning step: it returns the first token at
// or after byte i of text and the offset just past it, and ok false when
// only whitespace is left.
func next(text string, i int) (tok Token, end int, ok bool) {
	for i < len(text) {
		r, size := utf8.DecodeRuneInString(text[i:])
		switch {
		case unicode.IsSpace(r):
			i += size
			continue
		case isSchemeStart(text[i:]):
			tok, size = scanURL(text, i)
		case isWordRune(r):
			tok, size = scanWordish(text, i)
		case unicode.IsDigit(r):
			tok, size = scanNumber(text, i)
		case IsEmoji(r):
			tok = Token{Text: text[i : i+size], Kind: KindEmoji, Pos: i}
		case unicode.IsPunct(r):
			tok = Token{Text: text[i : i+size], Kind: KindPunct, Pos: i}
		default:
			tok = Token{Text: text[i : i+size], Kind: KindSymbol, Pos: i}
		}
		return tok, i + size, true
	}
	return Token{}, i, false
}

func isWordRune(r rune) bool { return unicode.IsLetter(r) || r == '_' }

// scanWordish consumes a run starting with a letter. It may turn out to be
// a plain word, or an email address ("name@example.com"), or a bare domain
// ("www.reddit.com") which we classify as a URL.
func scanWordish(text string, start int) (Token, int) {
	i := start
	n := len(text)
	hasAt := false
	hasDot := false
	for i < n {
		r, size := utf8.DecodeRuneInString(text[i:])
		switch {
		case isWordRune(r) || unicode.IsDigit(r):
			i += size
		case r == '\'' || r == '-':
			// Internal only: require a word rune after.
			if i+size < n {
				nr, _ := utf8.DecodeRuneInString(text[i+size:])
				if isWordRune(nr) || unicode.IsDigit(nr) {
					i += size
					continue
				}
			}
			return classifyWordish(text[start:i], start, hasAt, hasDot), i - start
		case r == '@':
			// Possible email: require something word-like after.
			if i+size < n {
				nr, _ := utf8.DecodeRuneInString(text[i+size:])
				if isWordRune(nr) || unicode.IsDigit(nr) {
					hasAt = true
					i += size
					continue
				}
			}
			return classifyWordish(text[start:i], start, hasAt, hasDot), i - start
		case r == '.':
			// Internal dot: domain or email continuation.
			if i+size < n {
				nr, _ := utf8.DecodeRuneInString(text[i+size:])
				if isWordRune(nr) || unicode.IsDigit(nr) {
					hasDot = true
					i += size
					continue
				}
			}
			return classifyWordish(text[start:i], start, hasAt, hasDot), i - start
		default:
			return classifyWordish(text[start:i], start, hasAt, hasDot), i - start
		}
	}
	return classifyWordish(text[start:i], start, hasAt, hasDot), i - start
}

func classifyWordish(s string, pos int, hasAt, hasDot bool) Token {
	switch {
	case hasAt && hasDot:
		return Token{Text: s, Kind: KindEmail, Pos: pos}
	case hasAt:
		// "user@host" without a dot — still treat as email-like handle.
		return Token{Text: s, Kind: KindEmail, Pos: pos}
	case hasDot && looksLikeDomain(s):
		return Token{Text: s, Kind: KindURL, Pos: pos}
	case hasDot:
		// Sentence glued together ("end.Start"); keep as a word, callers
		// that care can re-split. Feature extraction lowercases anyway.
		return Token{Text: s, Kind: KindWord, Pos: pos}
	default:
		return Token{Text: s, Kind: KindWord, Pos: pos}
	}
}

// knownTLDs is the set of top-level domains we accept for bare-domain URL
// detection. Deliberately short: false positives turn words into URLs and
// damage stylometric features.
var knownTLDs = map[string]bool{
	"com": true, "org": true, "net": true, "edu": true, "gov": true,
	"io": true, "co": true, "uk": true, "de": true, "fr": true,
	"onion": true, "info": true, "biz": true, "me": true, "tv": true,
}

func looksLikeDomain(s string) bool {
	if strings.HasPrefix(strings.ToLower(s), "www.") {
		return true
	}
	dot := strings.LastIndexByte(s, '.')
	if dot < 0 || dot == len(s)-1 {
		return false
	}
	return knownTLDs[strings.ToLower(s[dot+1:])]
}

func isSchemeStart(s string) bool {
	lower := s
	if len(lower) > 10 {
		lower = lower[:10]
	}
	lower = strings.ToLower(lower)
	return strings.HasPrefix(lower, "http://") || strings.HasPrefix(lower, "https://") ||
		strings.HasPrefix(lower, "ftp://")
}

// scanURL consumes a scheme-prefixed URL up to whitespace or a terminal
// punctuation character that is conventionally not part of URLs.
func scanURL(text string, start int) (Token, int) {
	i := start
	n := len(text)
	for i < n {
		r, size := utf8.DecodeRuneInString(text[i:])
		if unicode.IsSpace(r) {
			break
		}
		i += size
	}
	// Trim trailing punctuation that belongs to the sentence: ")," etc.
	end := i
	for end > start {
		r, size := decodeLastRune(text[start:end])
		if strings.ContainsRune(".,;:!?)('\"]>", r) {
			end -= size
			continue
		}
		break
	}
	return Token{Text: text[start:end], Kind: KindURL, Pos: start}, end - start
}

func decodeLastRune(s string) (rune, int) {
	return utf8.DecodeLastRuneInString(s)
}

// scanNumber consumes a digit run with internal '.' ',' ':' separators
// (quantities, prices, times).
func scanNumber(text string, start int) (Token, int) {
	i := start
	n := len(text)
	for i < n {
		r, size := utf8.DecodeRuneInString(text[i:])
		switch {
		case unicode.IsDigit(r):
			i += size
		case r == '.' || r == ',' || r == ':':
			if i+size < n {
				nr, _ := utf8.DecodeRuneInString(text[i+size:])
				if unicode.IsDigit(nr) {
					i += size
					continue
				}
			}
			return Token{Text: text[start:i], Kind: KindNumber, Pos: start}, i - start
		default:
			return Token{Text: text[start:i], Kind: KindNumber, Pos: start}, i - start
		}
	}
	return Token{Text: text[start:i], Kind: KindNumber, Pos: start}, i - start
}

// IsEmoji reports whether the rune is an emoji or pictographic symbol.
// Covers the main Unicode emoji blocks plus variation selectors and
// zero-width joiners used in emoji sequences.
func IsEmoji(r rune) bool {
	switch {
	case r >= 0x1F300 && r <= 0x1FAFF: // misc pictographs … symbols extended-A
		return true
	case r >= 0x1F000 && r <= 0x1F2FF: // mahjong, dominoes, enclosed ideographs
		return true
	case r >= 0x2600 && r <= 0x27BF: // misc symbols, dingbats
		return true
	case r >= 0x2B00 && r <= 0x2BFF: // arrows/symbols used as emoji
		return true
	case r == 0x200D || r == 0xFE0E || r == 0xFE0F: // ZWJ, variation selectors
		return true
	case r >= 0x1F1E6 && r <= 0x1F1FF: // regional indicators (flags)
		return true
	default:
		return false
	}
}

// StripEmoji removes all emoji runes (and emoji joiners) from s.
func StripEmoji(s string) string {
	if !strings.ContainsFunc(s, IsEmoji) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		if !IsEmoji(r) {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// pgpHeaders are the armored block delimiters stripped by polishing step 11.
const (
	pgpBegin        = "-----BEGIN PGP"
	pgpEnd          = "-----END PGP"
	pgpEndLineClose = "-----"
)

// StripPGP removes armored PGP blocks (public keys, signatures, signed
// message wrappers) from the text. An unterminated block is removed to the
// end of the text — dark-web posts are routinely truncated mid-key.
func StripPGP(s string) string {
	for {
		begin := strings.Index(s, pgpBegin)
		if begin < 0 {
			return s
		}
		endIdx := strings.Index(s[begin:], pgpEnd)
		if endIdx < 0 {
			return strings.TrimRight(s[:begin], " \t\n")
		}
		end := begin + endIdx
		// Consume to the end of the END line.
		rest := s[end+len(pgpEnd):]
		if close := strings.Index(rest, pgpEndLineClose); close >= 0 {
			end = end + len(pgpEnd) + close + len(pgpEndLineClose)
		} else if nl := strings.IndexByte(rest, '\n'); nl >= 0 {
			end = end + len(pgpEnd) + nl
		} else {
			end = len(s)
		}
		s = s[:begin] + s[end:]
	}
}

// ContainsPGP reports whether the text contains an armored PGP delimiter.
func ContainsPGP(s string) bool { return strings.Contains(s, pgpBegin) }
