package langdetect

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Holdout sentences: none of these appear in the seed corpora.
var holdout = map[Lang][]string{
	English: {
		"the package arrived yesterday and the quality is much better than the last batch i ordered from them.",
		"i really think you should check the reviews before sending any money to a new vendor on this market.",
	},
	Spanish: {
		"el envío llegó ayer y la calidad es mucho mejor que la del último pedido que hice con ellos.",
		"creo que deberías revisar las opiniones antes de enviar dinero a un vendedor nuevo en este mercado.",
	},
	French: {
		"le colis est arrivé hier et la qualité est bien meilleure que celle de ma dernière commande chez eux.",
	},
	German: {
		"das paket kam gestern an und die qualität ist viel besser als bei der letzten bestellung von ihnen.",
	},
	Italian: {
		"il pacco è arrivato ieri e la qualità è molto migliore rispetto all'ultimo ordine che ho fatto da loro.",
	},
	Portuguese: {
		"o pacote chegou ontem e a qualidade é muito melhor do que a da última encomenda que fiz com eles.",
	},
	Dutch: {
		"het pakket kwam gisteren aan en de kwaliteit is veel beter dan bij de vorige bestelling van hen.",
	},
}

func TestDetectHoldoutSentences(t *testing.T) {
	d := Default()
	for lang, sentences := range holdout {
		for _, s := range sentences {
			got, prob, ok := d.DetectLang(s)
			if !ok {
				t.Errorf("%s: no detection for %q", lang, s)
				continue
			}
			if got != lang {
				t.Errorf("detected %s (p=%.2f) for %s sentence %q", got, prob, lang, s)
			}
		}
	}
}

func TestIsEnglish(t *testing.T) {
	d := Default()
	if !d.IsEnglish(holdout[English][0], 0.5) {
		t.Error("English holdout not accepted")
	}
	if d.IsEnglish(holdout[Spanish][0], 0.5) {
		t.Error("Spanish holdout accepted as English")
	}
	if d.IsEnglish("12345 !!! ???", 0.5) {
		t.Error("letter-free text must not be English")
	}
	if d.IsEnglish("", 0.5) {
		t.Error("empty text must not be English")
	}
}

func TestDetectEmptyAndSymbolOnly(t *testing.T) {
	d := Default()
	for _, s := range []string{"", "   ", "12345", "!!! ???"} {
		if got := d.Detect(s); got != nil {
			t.Errorf("Detect(%q) = %v, want nil", s, got)
		}
	}
}

func TestDetectionsSortedAndNormalised(t *testing.T) {
	d := Default()
	ds := d.Detect(holdout[English][0])
	if len(ds) != len(d.langs) {
		t.Fatalf("got %d detections, want %d", len(ds), len(d.langs))
	}
	sum := 0.0
	for i, det := range ds {
		sum += det.Prob
		if i > 0 && det.Prob > ds[i-1].Prob {
			t.Error("detections must be sorted by descending probability")
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("posteriors sum to %v, want 1", sum)
	}
}

func TestLanguagesList(t *testing.T) {
	langs := Default().langs
	if len(langs) != 8 {
		t.Fatalf("got %d languages, want 8", len(langs))
	}
	for i := 1; i < len(langs); i++ {
		if langs[i] <= langs[i-1] {
			t.Error("the language list must be sorted")
		}
	}
}

func TestCustomDetector(t *testing.T) {
	d := NewDetector(map[Lang]string{
		"aa": strings.Repeat("aaaa bbbb aaaa ", 50),
		"cc": strings.Repeat("cccc dddd cccc ", 50),
	})
	lang, _, ok := d.DetectLang("aaaa aaaa bbbb")
	if !ok || lang != "aa" {
		t.Errorf("DetectLang = %v, %v", lang, ok)
	}
}

// TestManyLanguagesMatchNaive scores against one language, more than the
// embedded eight, and more than DetectLang ranks on the stack: Detect must
// still equal the per-profile reference, and DetectLang its first guess.
func TestManyLanguagesMatchNaive(t *testing.T) {
	alphabet := []rune("abcdefghijklmnopqrstuvwxyzàéîõüßøåçñłżšđ'")
	rng := rand.New(rand.NewSource(1))
	word := func(letters []rune) string {
		w := make([]rune, 2+rng.Intn(6))
		for i := range w {
			w[i] = letters[rng.Intn(len(letters))]
		}
		return string(w)
	}
	for _, langs := range []int{1, 12, 40} {
		corpora := make(map[Lang]string, langs)
		texts := append([]string(nil), concurrencyTexts...)
		for l := 0; l < langs; l++ {
			letters := make([]rune, 8)
			for i := range letters {
				letters[i] = alphabet[(l*5+i*3)%len(alphabet)]
			}
			var b strings.Builder
			for i := 0; i < 300; i++ {
				b.WriteString(word(letters) + " ")
			}
			corpora[Lang(fmt.Sprintf("l%02d", l))] = b.String()
			texts = append(texts, word(letters)+" "+strings.ToUpper(word(letters))+", "+word(letters))
		}
		d := NewDetector(corpora)
		if len(d.langs) != langs {
			t.Fatalf("got %d languages, want %d", len(d.langs), langs)
		}
		for _, text := range texts {
			matchNaive(t, d, text)
		}
	}
}

// TestIsEnglishAllocatesNothing: the english-only polishing step runs
// IsEnglish on every message, so it ranks from the stack.
func TestIsEnglishAllocatesNothing(t *testing.T) {
	var b strings.Builder
	for b.Len() < 1024 {
		for _, s := range concurrencyTexts {
			b.WriteString(s + " ")
		}
	}
	text := b.String()[:1024]
	d := Default()
	if allocs := testing.AllocsPerRun(20, func() { d.IsEnglish(text, 0.5) }); allocs > 0 {
		t.Errorf("IsEnglish on %d bytes allocated %v times a call, want 0", len(text), allocs)
	}
}

func TestNormalize(t *testing.T) {
	got := normalize("Hello, WORLD!  123 foo's")
	want := "hello world foo's"
	if got != want {
		t.Errorf("normalize = %q, want %q", got, want)
	}
}

func TestDefaultIsSingleton(t *testing.T) {
	if Default() != Default() {
		t.Error("Default must return the same instance")
	}
}
