package analysis

import "strings"

// Scope is a comma-separable list of package-path patterns. A pattern
// matches a package when its slash-separated segments occur as a
// contiguous run anywhere in the package's import path, so the one
// pattern "internal/synth" covers both the real package
// ("darklight/internal/synth") and its analysistest stand-in
// ("internal/synth"), and "cmd" covers every command. The special
// pattern "all" matches everything.
//
// A pattern starting with "!" is an exclusion and always wins: the scope
// "internal/obs,!internal/obs/reqtrace" covers the obs tree except the
// reqtrace subpackage, regardless of pattern order. A scope of only
// exclusions matches nothing (there is no implicit "all").
type Scope []string

// NewScope splits a comma-separated pattern list, dropping empties.
func NewScope(csv string) Scope {
	var s Scope
	for _, p := range strings.Split(csv, ",") {
		if p = strings.TrimSpace(p); p != "" {
			s = append(s, p)
		}
	}
	return s
}

// Matches reports whether any positive pattern matches the package path
// and no "!"-negated pattern does. Exclusions are checked first so they
// win independent of where they sit in the list.
func (s Scope) Matches(pkgPath string) bool {
	for _, pat := range s {
		if neg, ok := strings.CutPrefix(pat, "!"); ok && (neg == "all" || matchSegments(neg, pkgPath)) {
			return false
		}
	}
	for _, pat := range s {
		if strings.HasPrefix(pat, "!") {
			continue
		}
		if pat == "all" || matchSegments(pat, pkgPath) {
			return true
		}
	}
	return false
}

func matchSegments(pattern, path string) bool {
	if pattern == path {
		return true
	}
	want := strings.Split(pattern, "/")
	have := strings.Split(path, "/")
	for i := 0; i+len(want) <= len(have); i++ {
		ok := true
		for j := range want {
			if have[i+j] != want[j] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
