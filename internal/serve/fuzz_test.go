package serve

// FuzzDecodeRequest hammers the strict request decoder with hostile bodies.
// Invariants: it never panics, and every rejection is a complete structured
// envelope (stable code, non-empty message, 4xx/5xx status) that itself
// marshals cleanly. CI runs this as a short fuzz smoke; longer local runs:
//
//	go test ./internal/serve -fuzz FuzzDecodeRequest -fuzztime 60s

import (
	"encoding/json"
	"strings"
	"testing"
)

func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"subject":{"alias":"q_alice"},"k":3}`))
	f.Add([]byte(`{"subject":{"name":"x","messages":[{"body":"hi","time":"2017-03-04T10:00:00Z"}]}}`))
	f.Add([]byte("{\"subject\":{\"alias\":\"a\x00b\"}}"))
	f.Add([]byte(`{"subject":{"alias":"日本語🧅"},"k":-9999999}`))
	f.Add([]byte(`{"subject":{"alias":"q"},"topk":5}`))
	f.Add([]byte(`{"subject":`))
	f.Add([]byte(`{"subject":{"alias":"q"}}{"x":1}`))
	f.Add([]byte(`[{"subject":{}},null,0.1e308]`))
	f.Add([]byte(strings.Repeat(`{"k":`, 512)))
	f.Add([]byte(`{"subject":{"alias":"` + strings.Repeat("A", 10<<20) + `"}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, dst := range []any{new(RankRequest), new(RescoreRequest), new(MatchRequest)} {
			apiErr := decodeRequest(data, dst)
			if apiErr == nil {
				continue
			}
			if apiErr.Code == "" || apiErr.Message == "" {
				t.Fatalf("rejection with incomplete envelope: %+v (input %q)", apiErr, truncate(data))
			}
			if apiErr.Status < 400 || apiErr.Status > 599 {
				t.Fatalf("rejection with non-error status %d (input %q)", apiErr.Status, truncate(data))
			}
			if _, err := json.Marshal(errorEnvelope{Error: apiErr}); err != nil {
				t.Fatalf("error envelope does not marshal: %v", err)
			}
		}
	})
}

func truncate(b []byte) string {
	if len(b) > 128 {
		return string(b[:128]) + "..."
	}
	return string(b)
}
