package splitmix

import "testing"

// TestMixKnownAnswers pins the first draws of the reference SplitMix64
// generator seeded with 0 (Vigna's splitmix64.c).
func TestMixKnownAnswers(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	var state uint64
	for i, w := range want {
		if got := Mix(state); got != w {
			t.Errorf("draw %d = %#x, want %#x", i, got, w)
		}
		state += Gamma
	}
}
