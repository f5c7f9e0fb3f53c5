package langdetect

import (
	"reflect"
	"testing"
)

// FuzzDetect pins the one-pass scorer to the per-profile reference on
// arbitrary text: Detect must equal naiveDetect exactly, and DetectLang and
// IsEnglish must agree with its first guess.
func FuzzDetect(f *testing.F) {
	seeds := append([]string{
		"",
		"12345 67890",
		"\xff\xfe invalid \x80 utf8 \xe2\x82 bytes",
		"İSTANBUL İyi günler, İzmir",
		"ǅemal ǈubljana ǋ titlecase digraphs",
		"don't won't 'quoted' '' ' l'été",
		"emoji \U0001F600 between \U0001F3F4 words ❤️",
		"MIXED Case ÀÉÎÕÜ ÆØÅ ẞ Σίσυφος",
		"\u212a Kelvin \u212b Angstrom",
		"a",
		"  ab  ",
	}, concurrencyTexts...)
	for _, s := range seeds {
		f.Add(s)
	}
	d := Default()
	f.Fuzz(func(t *testing.T, text string) { matchNaive(t, d, text) })
}

// matchNaive fails t unless Detect equals naiveDetect on text, and
// DetectLang and IsEnglish agree with its first guess.
func matchNaive(t *testing.T, d *Detector, text string) {
	t.Helper()
	want := naiveDetect(d, text)
	if got := d.Detect(text); !reflect.DeepEqual(got, want) {
		t.Fatalf("%d languages: Detect(%q) = %v, naive reference = %v", len(d.langs), text, got, want)
	}
	lang, prob, ok := d.DetectLang(text)
	if ok != (len(want) > 0) || ok && (lang != want[0].Lang || prob != want[0].Prob) {
		t.Fatalf("%d languages: DetectLang(%q) = %v %v %v, naive reference = %v", len(d.langs), text, lang, prob, ok, want)
	}
	if en := ok && lang == English && prob >= 0.5; d.IsEnglish(text, 0.5) != en {
		t.Fatalf("IsEnglish(%q) = %v, want %v", text, !en, en)
	}
}
