package synth

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Person is one human being with a persistent style genome and a persistent
// circadian genome. The same Person instantiated on two different forums
// (with some domain drift) is the generative model behind every
// "two aliases, one user" ground-truth pair.
type Person struct {
	// ID indexes the person within the population.
	ID int
	// Seed drives every persistent trait; derived from the master seed.
	Seed uint64

	// --- style genome ---

	// StyleStrength scales how far this person's word preferences deviate
	// from the population average. 0 = everyone identical.
	StyleStrength float64
	// slang, typos, phrases, openers are the idiosyncrasies this person
	// adopted.
	slang   []string
	typos   [][2]string // [original, misspelling]
	phrases []string
	openers []string

	// Punctuation & orthography habits (rates per sentence or per word).
	exclaimRate   float64
	ellipsisRate  float64
	questionRate  float64
	commaRate     float64
	emojiRate     float64
	emphasisRate  float64 // *word*
	parenRate     float64 // (aside)
	digitRate     float64
	slangRate     float64
	phraseRate    float64
	openerRate    float64
	typoRate      float64
	lowercaseOnly bool
	capsWordRate  float64 // OCCASIONAL SHOUTING

	// Sentence/message shape.
	sentLenMu    float64 // lognormal words per sentence
	sentLenSigma float64

	// Topic interests (unnormalised weights over Topics).
	topicPrefs map[string]float64

	// --- circadian genome ---

	// TZOffsetMinutes is the person's home-timezone offset from UTC.
	TZOffsetMinutes int
	// peakHour / peakWidth describe the primary local posting peak;
	// secondPeak adds an optional evening/morning secondary habit.
	peakHour    float64
	peakWidth   float64
	secondPeak  float64
	secondWidth float64
	secondProb  float64
	uniformProb float64
}

// PersonConfig tunes population-level trait distributions.
type PersonConfig struct {
	// StyleStrength is the mean style deviation (default 0.9).
	StyleStrength float64
	// TypoRate default 0.03, SlangRate default 0.05.
	TypoRate  float64
	SlangRate float64
}

// DefaultPersonConfig returns the calibrated defaults.
func DefaultPersonConfig() PersonConfig {
	return PersonConfig{StyleStrength: 0.7, TypoRate: 0.05, SlangRate: 0.04}
}

// NewPerson derives a person deterministically from the master seed.
func NewPerson(masterSeed uint64, id int, cfg PersonConfig) *Person {
	seed := hash2(masterSeed, uint64(id)*0x9e3779b97f4a7c15+1)
	r := subRand(seed, "genome")
	p := &Person{
		ID:            id,
		Seed:          seed,
		StyleStrength: cfg.StyleStrength * (0.4 + 1.2*r.Float64()),
	}

	// Adopt idiosyncrasies.
	p.slang = pickSubset(r, slangPool, 3+r.Intn(6))
	p.phrases = pickSubset(r, phrasePool, 2+r.Intn(4))
	p.openers = pickSubset(r, openerPool, 2+r.Intn(3))
	typoKeys := make([]string, 0, len(typoPool))
	for k := range typoPool {
		typoKeys = append(typoKeys, k)
	}
	sortStrings(typoKeys)
	for _, k := range pickSubset(r, typoKeys, 4+r.Intn(5)) {
		p.typos = append(p.typos, [2]string{k, typoPool[k]})
	}

	p.exclaimRate = clamp(r.NormFloat64()*0.08+0.08, 0, 0.5)
	p.ellipsisRate = clamp(r.NormFloat64()*0.05+0.04, 0, 0.4)
	p.questionRate = clamp(r.NormFloat64()*0.06+0.10, 0, 0.4)
	p.commaRate = clamp(r.NormFloat64()*0.10+0.25, 0, 0.8)
	p.emojiRate = clamp(r.NormFloat64()*0.04+0.02, 0, 0.3)
	p.emphasisRate = clamp(r.NormFloat64()*0.02+0.01, 0, 0.15)
	p.parenRate = clamp(r.NormFloat64()*0.03+0.02, 0, 0.2)
	p.digitRate = clamp(r.NormFloat64()*0.04+0.04, 0, 0.3)
	p.slangRate = clamp(r.NormFloat64()*0.02+cfg.SlangRate, 0, 0.2)
	p.phraseRate = clamp(r.NormFloat64()*0.02+0.03, 0, 0.15)
	p.openerRate = clamp(r.NormFloat64()*0.04+0.07, 0, 0.25)
	p.typoRate = clamp(r.NormFloat64()*0.02+cfg.TypoRate, 0, 0.2)
	p.lowercaseOnly = r.Float64() < 0.25
	p.capsWordRate = 0
	if r.Float64() < 0.15 {
		p.capsWordRate = 0.01 + 0.02*r.Float64()
	}

	p.sentLenMu = 2.2 + 0.35*r.NormFloat64() // median ≈ 9 words
	p.sentLenSigma = 0.35 + 0.1*r.Float64()

	// Topic interests: everyone likes 2–4 topics strongly, drawn by global
	// topic popularity so the population reproduces Table I's skew
	// (Drugs-dominated, Entertainment second).
	p.topicPrefs = make(map[string]float64, len(Topics))
	for _, t := range Topics {
		p.topicPrefs[t] = (0.1 + 0.2*r.Float64()) * topicPopularity[t]
	}
	popWeights := make([]float64, len(Topics))
	for i, t := range Topics {
		popWeights[i] = topicPopularity[t]
	}
	strong := 2 + r.Intn(3)
	for s := 0; s < strong; s++ {
		t := Topics[weightedIndex(r, popWeights)]
		p.topicPrefs[t] += (1.5 + 2*r.Float64()) * topicPopularity[t]
	}

	// Circadian genome: timezone drawn from a rough world population of
	// forum users (North America heavy, then Europe).
	zones := []int{-480, -420, -360, -300, -240, 0, 60, 120, 180, 330, 480, 600}
	zoneWeights := []float64{8, 6, 8, 14, 6, 10, 12, 8, 3, 2, 3, 2}
	p.TZOffsetMinutes = zones[weightedIndex(r, zoneWeights)]
	p.peakHour = float64(9+r.Intn(13)) + r.Float64() // 09–22 local
	p.peakWidth = 0.7 + 1.3*r.Float64()
	p.secondPeak = math.Mod(p.peakHour+6+6*r.Float64(), 24)
	p.secondWidth = 1.2 + 1.6*r.Float64()
	p.secondProb = 0.10 + 0.20*r.Float64()
	p.uniformProb = 0.02 + 0.05*r.Float64()
	return p
}

// Nickname generates the person's alias on a given forum. Most people pick
// unrelated nicknames per forum; vendors (decided by the population layer)
// reuse their brand.
func (p *Person) Nickname(forumID string, reuseBrand bool) string {
	h := p.Seed
	if !reuseBrand {
		h = hash2(h, hashString(forumID))
	}
	adj := nicknameAdjectives[h%uint64(len(nicknameAdjectives))]
	noun := nicknameNouns[(h>>16)%uint64(len(nicknameNouns))]
	num := (h >> 32) % 1000
	if num%3 == 0 {
		return fmt.Sprintf("%s_%s", adj, noun)
	}
	return fmt.Sprintf("%s%s%d", adj, noun, num%100)
}

// wordAffinityScaled is the persistent per-word preference multiplier,
// exp(style · scale · z(person, word) + drift · z(person, word, forum)),
// the style strength scaled for this word class (function words get a
// fraction of the full strength).
func (p *Person) wordAffinityScaled(word string, forumHash uint64, drift, strengthScale float64) float64 {
	z := gauss(hash2(p.Seed, hashString(word)))
	a := p.StyleStrength * strengthScale * z
	if drift > 0 {
		a += drift * gauss(hash3(p.Seed, hashString(word), forumHash))
	}
	return math.Exp(a)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// pickSubset draws k distinct elements (order randomised) from pool.
func pickSubset(r *rand.Rand, pool []string, k int) []string {
	if k > len(pool) {
		k = len(pool)
	}
	idx := r.Perm(len(pool))[:k]
	out := make([]string, k)
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// applyOrthography runs the person's habitual transformations on a word.
func (p *Person) applyOrthography(r *rand.Rand, word string) string {
	if p.typoRate > 0 && r.Float64() < p.typoRate {
		for _, t := range p.typos {
			if word == t[0] {
				return t[1]
			}
		}
	}
	if p.capsWordRate > 0 && r.Float64() < p.capsWordRate {
		return strings.ToUpper(word)
	}
	return word
}
