package synth

import (
	"math"
	"math/rand"

	"darklight/internal/splitmix"
)

// Determinism contract: every stochastic choice in the generator flows from
// either (a) an explicit *rand.Rand seeded from the master seed, for
// sequential decisions, or (b) a stateless hash of (seed, entity, key), for
// *persistent* traits that must be identical whenever the same entity is
// instantiated — a person's affinity for a word must not depend on the
// order in which forums generate their messages.

// hashString folds a string into a 64-bit value (FNV-1a core, splitmix
// finalised).
func hashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return splitmix.Mix(h)
}

// hash2 combines two 64-bit values.
func hash2(a, b uint64) uint64 { return splitmix.Mix(a ^ splitmix.Mix(b)) }

// hash3 combines three 64-bit values.
func hash3(a, b, c uint64) uint64 { return splitmix.Mix(hash2(a, b) ^ splitmix.Mix(c)) }

// uniform01 maps a hash to (0,1). Never returns exactly 0, so it is safe
// as a log() argument.
func uniform01(h uint64) float64 {
	return (float64(h>>11) + 0.5) / (1 << 53)
}

// gauss maps a hash to a standard normal deviate via Box–Muller on two
// decorrelated uniforms derived from the hash.
func gauss(h uint64) float64 {
	u1 := uniform01(h)
	u2 := uniform01(splitmix.Mix(h + 0x6a09e667f3bcc909))
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// subRand derives an independent rand.Rand stream for a named purpose.
func subRand(seed uint64, purpose string) *rand.Rand {
	return rand.New(rand.NewSource(int64(hash2(seed, hashString(purpose)))))
}

// weightedIndex draws an index proportionally to weights using r.
// The weights need not be normalised; non-positive weights are ignored.
// Returns -1 when every weight is non-positive.
func weightedIndex(r *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return -1
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x <= 0 {
			return i
		}
	}
	// Float round-off can leave a sliver; return the last positive index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return -1
}

// lognormal draws exp(N(mu, sigma)) using r.
func lognormal(r *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}
