package main

import (
	"strings"
	"testing"
)

// TestSelectExperiments pins -run's parsing against the real experiment
// list: every listed id selects, empty selects all, and an unknown id —
// a typo, or an experiment that no longer exists — is an error naming it
// and the valid ids, returned before any lab is built.
func TestSelectExperiments(t *testing.T) {
	list := experimentList()
	for _, c := range []struct {
		run     string
		want    []string
		wantErr string
	}{
		{run: "", want: nil},
		{run: " , ", want: nil},
		{run: "tab1", want: []string{"tab1"}},
		{run: "tab1, tmgdm,tab1", want: []string{"tab1", "tmgdm"}},
		{run: "prefilter", wantErr: `unknown experiment "prefilter"`},
		{run: "tab1,tab7", wantErr: `unknown experiment "tab7"`},
		{run: "TAB1", wantErr: `unknown experiment "TAB1"`},
	} {
		got, err := selectExperiments(c.run, list)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("-run %q: err = %v, want one containing %q", c.run, err, c.wantErr)
			} else if !strings.Contains(err.Error(), "tab1, fig1,") || !strings.Contains(err.Error(), "batch") {
				t.Errorf("-run %q: error %q does not list the valid ids", c.run, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("-run %q: %v", c.run, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("-run %q selected %v, want %v", c.run, got, c.want)
		}
		for _, id := range c.want {
			if !got[id] {
				t.Errorf("-run %q did not select %q (got %v)", c.run, id, got)
			}
		}
	}
	for _, e := range list {
		if got, err := selectExperiments(e.id, list); err != nil || !got[e.id] {
			t.Errorf("-run %q: selected %v, err %v", e.id, got, err)
		}
	}
}
