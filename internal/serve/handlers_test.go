package serve

// Table-driven handler tests: every endpoint crossed with the request
// shapes a hostile or sloppy client can produce, each pinned to a golden
// response body. Regenerate goldens with:
//
//	go test ./internal/serve -run TestHandlerTable -update

import (
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden response bodies")

func TestHandlerTable(t *testing.T) {
	shared := newTestService(t, newFakeClock(), nil)
	sharedHandler := shared.Handler()

	// limited: burst-1 limiter for the rate-limited rows. A fresh service
	// per row keeps the bucket state independent of row order. noAuth
	// drops the API-key allowlist, the open-deployment configuration the
	// bypass row exercises.
	newLimited := func(t *testing.T, noAuth bool) http.Handler {
		svc := newTestService(t, newFakeClock(), func(c *Config) {
			c.RatePerSec = 1
			c.Burst = 1
			if noAuth {
				c.APIKeys = nil
			}
		})
		return svc.Handler()
	}

	validSubject := `{"alias":"q_alice"}`
	inlineSubject := `{"name":"visitor","messages":[{"body":"shipment arrived with stealth packaging and escrow finalize quality tracking","time":"2017-03-04T10:00:00Z"}]}`
	bigBody := `{"subject":{"alias":"q_alice"},"k":` + strings.Repeat("1", 4096) + `}`

	type row struct {
		name       string
		endpoint   string // path under /v1/
		method     string
		apiKey     string
		body       string
		rateLimit  bool   // run against a fresh burst-1 service, second request
		noAuth     bool   // rateLimit service runs without an API-key allowlist
		primeKey   string // API key for the priming request; "" = apiKey
		wantStatus int
		wantRetry  string // expected Retry-After header, "" = none
	}
	rows := []row{
		// /v1/rank
		{name: "rank_valid", endpoint: "rank", method: "POST", apiKey: "test-key", body: `{"subject":` + validSubject + `}`, wantStatus: 200},
		{name: "rank_valid_k2", endpoint: "rank", method: "POST", apiKey: "test-key", body: `{"subject":` + validSubject + `,"k":2}`, wantStatus: 200},
		{name: "rank_inline_subject", endpoint: "rank", method: "POST", apiKey: "test-key", body: `{"subject":` + inlineSubject + `,"k":3}`, wantStatus: 200},
		{name: "rank_malformed_json", endpoint: "rank", method: "POST", apiKey: "test-key", body: `{"subject":`, wantStatus: 400},
		{name: "rank_unknown_field", endpoint: "rank", method: "POST", apiKey: "test-key", body: `{"subject":` + validSubject + `,"topk":5}`, wantStatus: 400},
		{name: "rank_missing_auth", endpoint: "rank", method: "POST", apiKey: "", body: `{"subject":` + validSubject + `}`, wantStatus: 401},
		{name: "rank_bad_api_key", endpoint: "rank", method: "POST", apiKey: "wrong-key", body: `{"subject":` + validSubject + `}`, wantStatus: 403},
		{name: "rank_rate_limited", endpoint: "rank", method: "POST", apiKey: "test-key", body: `{"subject":` + validSubject + `}`, rateLimit: true, wantStatus: 429, wantRetry: "1"},
		// With auth disabled, minting a fresh X-API-Key per request must NOT
		// mint a fresh bucket: both requests land on the remote-host bucket,
		// so the second is refused. (The old code keyed the limiter on the
		// unvalidated header, letting any caller bypass the limit.)
		{name: "rank_rate_limit_bypass", endpoint: "rank", method: "POST", apiKey: "minted-key-2", primeKey: "minted-key-1", body: `{"subject":` + validSubject + `}`, rateLimit: true, noAuth: true, wantStatus: 429, wantRetry: "1"},
		{name: "rank_oversized_body", endpoint: "rank", method: "POST", apiKey: "test-key", body: bigBody, wantStatus: 413},
		{name: "rank_unknown_alias", endpoint: "rank", method: "POST", apiKey: "test-key", body: `{"subject":{"alias":"nobody"}}`, wantStatus: 404},
		{name: "rank_negative_k", endpoint: "rank", method: "POST", apiKey: "test-key", body: `{"subject":` + validSubject + `,"k":-1}`, wantStatus: 400},
		{name: "rank_ambiguous_subject", endpoint: "rank", method: "POST", apiKey: "test-key", body: `{"subject":{"alias":"q_alice","name":"visitor"}}`, wantStatus: 400},
		{name: "rank_empty_subject", endpoint: "rank", method: "POST", apiKey: "test-key", body: `{"subject":{}}`, wantStatus: 400},
		{name: "rank_trailing_data", endpoint: "rank", method: "POST", apiKey: "test-key", body: `{"subject":` + validSubject + `}{"x":1}`, wantStatus: 400},
		{name: "rank_wrong_method", endpoint: "rank", method: "GET", apiKey: "test-key", body: "", wantStatus: 405},
		// No request picks stage 1's engine: the former "prefilter" knob is a
		// field like any other the API does not have.
		{name: "rank_prefilter_field", endpoint: "rank", method: "POST", apiKey: "test-key", body: `{"subject":` + validSubject + `,"prefilter":"pruned"}`, wantStatus: 400},

		// /v1/rescore
		{name: "rescore_valid", endpoint: "rescore", method: "POST", apiKey: "test-key", body: `{"subject":` + validSubject + `,"candidates":["alice","bob","frank"]}`, wantStatus: 200},
		{name: "rescore_malformed_json", endpoint: "rescore", method: "POST", apiKey: "test-key", body: `not json`, wantStatus: 400},
		{name: "rescore_unknown_field", endpoint: "rescore", method: "POST", apiKey: "test-key", body: `{"subject":` + validSubject + `,"candidates":["alice"],"limit":3}`, wantStatus: 400},
		{name: "rescore_missing_auth", endpoint: "rescore", method: "POST", apiKey: "", body: `{"subject":` + validSubject + `,"candidates":["alice"]}`, wantStatus: 401},
		{name: "rescore_bad_api_key", endpoint: "rescore", method: "POST", apiKey: "wrong-key", body: `{"subject":` + validSubject + `,"candidates":["alice"]}`, wantStatus: 403},
		{name: "rescore_rate_limited", endpoint: "rescore", method: "POST", apiKey: "test-key", body: `{"subject":` + validSubject + `,"candidates":["alice"]}`, rateLimit: true, wantStatus: 429, wantRetry: "1"},
		{name: "rescore_oversized_body", endpoint: "rescore", method: "POST", apiKey: "test-key", body: bigBody, wantStatus: 413},
		{name: "rescore_unknown_candidate", endpoint: "rescore", method: "POST", apiKey: "test-key", body: `{"subject":` + validSubject + `,"candidates":["alice","nobody"]}`, wantStatus: 404},
		{name: "rescore_unknown_subject", endpoint: "rescore", method: "POST", apiKey: "test-key", body: `{"subject":{"alias":"nobody"},"candidates":["alice"]}`, wantStatus: 404},
		{name: "rescore_no_candidates", endpoint: "rescore", method: "POST", apiKey: "test-key", body: `{"subject":` + validSubject + `,"candidates":[]}`, wantStatus: 400},
		// A repeat is refused before the subject is resolved: the subject here
		// is unknown, and the answer is still the 400, not its 404.
		{name: "rescore_duplicate_candidate", endpoint: "rescore", method: "POST", apiKey: "test-key", body: `{"subject":{"alias":"nobody"},"candidates":["alice","bob","alice"]}`, wantStatus: 400},

		// /v1/match
		{name: "match_valid", endpoint: "match", method: "POST", apiKey: "test-key", body: `{"subject":` + validSubject + `}`, wantStatus: 200},
		{name: "match_valid_second_query", endpoint: "match", method: "POST", apiKey: "test-key", body: `{"subject":{"alias":"q_dave"}}`, wantStatus: 200},
		{name: "match_inline_subject", endpoint: "match", method: "POST", apiKey: "test-key", body: `{"subject":` + inlineSubject + `}`, wantStatus: 200},
		{name: "match_malformed_json", endpoint: "match", method: "POST", apiKey: "test-key", body: `[1,2`, wantStatus: 400},
		{name: "match_unknown_field", endpoint: "match", method: "POST", apiKey: "test-key", body: `{"subject":` + validSubject + `,"verbose":true}`, wantStatus: 400},
		{name: "match_missing_auth", endpoint: "match", method: "POST", apiKey: "", body: `{"subject":` + validSubject + `}`, wantStatus: 401},
		{name: "match_bad_api_key", endpoint: "match", method: "POST", apiKey: "wrong-key", body: `{"subject":` + validSubject + `}`, wantStatus: 403},
		{name: "match_rate_limited", endpoint: "match", method: "POST", apiKey: "test-key", body: `{"subject":` + validSubject + `}`, rateLimit: true, wantStatus: 429, wantRetry: "1"},
		{name: "match_oversized_body", endpoint: "match", method: "POST", apiKey: "test-key", body: bigBody, wantStatus: 413},
		{name: "match_unknown_alias", endpoint: "match", method: "POST", apiKey: "test-key", body: `{"subject":{"alias":"nobody"}}`, wantStatus: 404},
		{name: "match_bad_timestamp", endpoint: "match", method: "POST", apiKey: "test-key", body: `{"subject":{"name":"visitor","messages":[{"body":"hello there","time":"yesterday"}]}}`, wantStatus: 400},

		// /v1/healthz (unauthenticated by design; POST is refused)
		{name: "healthz_valid", endpoint: "healthz", method: "GET", apiKey: "", body: "", wantStatus: 200},
		{name: "healthz_wrong_method", endpoint: "healthz", method: "POST", apiKey: "", body: `{}`, wantStatus: 405},
	}

	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			h := sharedHandler
			if tc.rateLimit {
				h = newLimited(t, tc.noAuth)
				// Burn the single burst token; the recorded request is the
				// refused second one.
				primeKey := tc.primeKey
				if primeKey == "" {
					primeKey = tc.apiKey
				}
				first := do(h, tc.method, "/v1/"+tc.endpoint, primeKey, []byte(tc.body))
				if first.Code != 200 {
					t.Fatalf("priming request: status %d, want 200 (body %s)", first.Code, first.Body.Bytes())
				}
			}
			rec := do(h, tc.method, "/v1/"+tc.endpoint, tc.apiKey, []byte(tc.body))
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.wantStatus, rec.Body.Bytes())
			}
			if got := rec.Header().Get("Retry-After"); got != tc.wantRetry {
				t.Errorf("Retry-After = %q, want %q", got, tc.wantRetry)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			if tc.wantStatus != 200 {
				assertEnvelope(t, rec.Body.Bytes(), tc.wantStatus)
			}
			checkGolden(t, tc.name, rec.Body.Bytes())
		})
	}
}

// assertEnvelope verifies every rejection carries the structured error
// envelope with all fields populated and the status echoed.
func assertEnvelope(t *testing.T, body []byte, status int) {
	t.Helper()
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("rejection body is not an error envelope: %v (%s)", err, body)
	}
	if env.Error == nil || env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("error envelope incomplete: %s", body)
	}
	if env.Error.Status != status {
		t.Errorf("envelope status %d != HTTP status %d", env.Error.Status, status)
	}
}

// checkGolden compares body to testdata/golden/<name>.json, rewriting the
// file under -update.
func checkGolden(t *testing.T, name string, body []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if string(want) != string(body) {
		t.Errorf("response differs from golden %s:\n got: %s\nwant: %s", path, body, want)
	}
}

// TestRescoreRejectsDuplicateCandidates pins the duplicate check: a name
// listed twice used to count double in stage 2's frequency and document-
// frequency tables (moving every candidate's score) and come back as two
// rows. Any repeat — adjacent or not — is refused with invalid_request and
// names the offender; the same names listed once still score.
func TestRescoreRejectsDuplicateCandidates(t *testing.T) {
	h := newTestService(t, newFakeClock(), nil).Handler()
	rescore := func(candidates string) *httptest.ResponseRecorder {
		return do(h, http.MethodPost, "/v1/rescore", "test-key",
			[]byte(`{"subject":{"alias":"q_alice"},"candidates":`+candidates+`}`))
	}
	for _, dup := range []string{`["alice","alice"]`, `["alice","bob","frank","bob"]`} {
		rec := rescore(dup)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("candidates %s: status %d, want 400 (body %s)", dup, rec.Code, rec.Body.Bytes())
		}
		var env errorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil {
			t.Fatalf("candidates %s: no error envelope: %v (%s)", dup, err, rec.Body.Bytes())
		}
		if env.Error.Code != CodeInvalidRequest {
			t.Errorf("candidates %s: code %q, want %q", dup, env.Error.Code, CodeInvalidRequest)
		}
	}
	rec := rescore(`["alice","bob","frank"]`)
	var resp RescoreResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("unique candidates: status %d, err %v (%s)", rec.Code, err, rec.Body.Bytes())
	}
	if len(resp.Rescored) != 3 {
		t.Fatalf("unique candidates: %d rows, want 3", len(resp.Rescored))
	}
}
