package forum

import (
	"errors"
	"strings"
	"testing"
)

// TestScanTornTail pins the rule both journal readers share, at the scanner:
// the intact prefix ends before the torn line, a line after a torn one is
// corruption naming the torn line, a callback's own error ends the scan as it
// is, and ReadCheckpoint's blank lines count as neither record nor damage.
func TestScanTornTail(t *testing.T) {
	stop := errors.New("stop")
	decode := func(_ int, line []byte) error {
		switch string(line) {
		case "bad":
			return ErrTornLine
		case "stop":
			return stop
		}
		return nil
	}
	for _, tc := range []struct {
		in      string
		intact  int
		wantErr string
	}{
		{"", 0, ""},
		{"a\nbb\n", 5, ""},
		{"a\nbb\nbad", 5, ""},
		{"a\nbad\n", 2, ""},
		{"a\nbad\nb\n", 0, "line 2: corrupt record"},
		{"bad\nbad\n", 0, "line 1: corrupt record"},
		{"a\nstop\nb\n", 0, "stop"},
		{"bad\nstop\n", 0, "line 1: corrupt record"},
	} {
		intact, err := ScanTornTail(strings.NewReader(tc.in), decode)
		if intact != tc.intact || (err == nil) != (tc.wantErr == "") || (err != nil && err.Error() != tc.wantErr) {
			t.Errorf("%q: intact %d, err %v; want %d, %q", tc.in, intact, err, tc.intact, tc.wantErr)
		}
	}
	if _, err := ScanTornTail(strings.NewReader("a\nstop\n"), decode); !errors.Is(err, stop) {
		t.Errorf("callback error came back as %v", err)
	}
	recs, err := ReadCheckpoint(strings.NewReader(`{"thread":"t0","messages":[]}` + "\n" + `{"thread":"t1","mess` + "\n\n"))
	if err != nil || len(recs) != 1 {
		t.Errorf("blank line after a torn tail: %v, %d records; want the tear dropped", err, len(recs))
	}
}
