package analysis

import "testing"

func TestScopeMatches(t *testing.T) {
	cases := []struct {
		scope string
		path  string
		want  bool
	}{
		{"internal/synth", "darklight/internal/synth", true},
		{"internal/synth", "internal/synth", true},
		{"internal/synth", "darklight/internal/synthetic", false},
		{"internal/synth", "darklight/internal/corpus", false},
		{"cmd", "darklight/cmd/scrape", true},
		{"cmd", "darklight/internal/cmdutil", false},
		{"internal", "darklight/internal/analysis/passes/errdrop", true},
		{"all", "anything/at/all", true},
		{"a,b,internal/x", "m/internal/x", true},
		{" internal/a , cmd ,", "m/cmd/x", true}, // NewScope trims and drops empties
		{"", "m/internal/x", false},
		{"internal/scraper", "darklight/internal/scraper", true},
		{"darklight", "darklight", true},
		// "!" exclusions carve subtrees out of a broader pattern and win
		// regardless of order.
		{"internal/obs,!internal/obs/reqtrace", "darklight/internal/obs", true},
		{"internal/obs,!internal/obs/reqtrace", "darklight/internal/obs/reqtrace", false},
		{"!internal/obs/reqtrace,internal/obs", "darklight/internal/obs/reqtrace", false},
		{"all,!cmd", "darklight/cmd/scrape", false},
		{"all,!cmd", "darklight/internal/obs", true},
		{"!cmd", "darklight/internal/obs", false}, // exclusions alone match nothing
		{"!all,internal/obs", "darklight/internal/obs", false},
	}
	for _, c := range cases {
		if got := NewScope(c.scope).Matches(c.path); got != c.want {
			t.Errorf("Scope(%q).Matches(%q) = %v, want %v", c.scope, c.path, got, c.want)
		}
	}
}
