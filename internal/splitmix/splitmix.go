// Package splitmix holds the one SplitMix64 step (public domain, Vigna)
// every seeded hash family and id stream in the repository is built from:
// the LSH hash family (prefilter), Koppel's feature subspaces (baselines),
// the synthetic world's stateless trait hashes (synth), and the request-id
// and reservoir streams (obs/reqtrace).
package splitmix

// Gamma is the stream increment: a SplitMix64 generator's state advances
// by Gamma per draw.
const Gamma = 0x9e3779b97f4a7c15

// Mix adds Gamma to x and finalises the sum; one application fully
// diffuses x. The draw of a generator whose state is s is Mix(s), after
// which the state is s + Gamma.
func Mix(x uint64) uint64 {
	x += Gamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
