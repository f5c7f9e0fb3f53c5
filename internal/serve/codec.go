// Package serve is the handler layer of cmd/attributed: versioned HTTP
// JSON endpoints over a darklight matcher, unit-testable without sockets.
//
// The response contract is deterministic: responses are encoded from
// structs (stable field order), candidate lists are sorted best-first with
// score ties broken by ascending alias name (the matcher's own order,
// re-asserted here), and a response is computed entirely against one
// immutable index snapshot — a reload never yields a torn or mixed-index
// response. The concurrency tests pin /v1/match bodies byte-identical to
// the darklight facade's Match output for the same corpus.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// DefaultMaxBody caps request bodies at 1 MiB unless Config overrides it.
const DefaultMaxBody = 1 << 20

// Error is the structured error envelope every rejected request carries,
// serialized as {"error": {...}}.
type Error struct {
	// Code is a stable machine-readable identifier (e.g. "unknown_alias").
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
	// Status is the HTTP status the error was served with.
	Status int `json:"status"`

	// retryAfter, when positive, is surfaced as a Retry-After header.
	retryAfter time.Duration
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s (%d): %s", e.Code, e.Status, e.Message) }

// errorEnvelope is the wire form of an Error.
type errorEnvelope struct {
	Error *Error `json:"error"`
}

// Error codes. Stable: clients and the golden handler tests key on them.
const (
	CodeInvalidJSON      = "invalid_json"
	CodeUnknownField     = "unknown_field"
	CodeInvalidRequest   = "invalid_request"
	CodeUnknownAlias     = "unknown_alias"
	CodeUnauthorized     = "unauthorized"
	CodeInvalidAPIKey    = "invalid_api_key"
	CodeRateLimited      = "rate_limited"
	CodePayloadTooLarge  = "payload_too_large"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeDraining         = "draining"
	CodeTimeout          = "timeout"
	CodeInternal         = "internal"
)

func errInvalidJSON(msg string) *Error {
	return &Error{Code: CodeInvalidJSON, Message: msg, Status: http.StatusBadRequest}
}

func errUnknownField(field string) *Error {
	return &Error{Code: CodeUnknownField, Message: "unknown field " + field, Status: http.StatusBadRequest}
}

func errInvalidRequest(msg string) *Error {
	return &Error{Code: CodeInvalidRequest, Message: msg, Status: http.StatusBadRequest}
}

func errUnknownAlias(name string) *Error {
	return &Error{Code: CodeUnknownAlias, Message: fmt.Sprintf("alias %q is not in the loaded corpus", name), Status: http.StatusNotFound}
}

func errPayloadTooLarge(limit int64) *Error {
	return &Error{Code: CodePayloadTooLarge, Message: fmt.Sprintf("request body exceeds the %d-byte limit", limit), Status: http.StatusRequestEntityTooLarge}
}

// MessageSpec is one inline query message.
type MessageSpec struct {
	// Body is the raw message text.
	Body string `json:"body"`
	// Time is the posting time in RFC 3339 (e.g. "2017-03-04T10:00:00Z").
	// Offsets are honoured as forum-local time, exactly like scraped data.
	Time string `json:"time"`
}

// SubjectSpec names the query subject: either a reference into the loaded
// query corpus ("alias") or an inline subject ("name" + "messages"),
// never both. Inline subjects are built by the same BuildSubjects path the
// batch pipeline uses — longest messages first under the word budget, with
// length ties broken by the injected sequential message id (request
// order), so the document is a pure function of the request.
type SubjectSpec struct {
	Alias    string        `json:"alias,omitempty"`
	Name     string        `json:"name,omitempty"`
	Messages []MessageSpec `json:"messages,omitempty"`
}

// RankRequest is the /v1/rank body.
type RankRequest struct {
	Subject SubjectSpec `json:"subject"`
	// K overrides the candidate-set size; 0 means the server's default.
	K int `json:"k,omitempty"`
}

// RescoreRequest is the /v1/rescore body. Every candidate must name a
// known subject in the current index.
type RescoreRequest struct {
	Subject    SubjectSpec `json:"subject"`
	Candidates []string    `json:"candidates"`
}

// MatchRequest is the /v1/match body.
type MatchRequest struct {
	Subject SubjectSpec `json:"subject"`
}

// Candidate is one scored known alias.
type Candidate struct {
	Alias string  `json:"alias"`
	Score float64 `json:"score"`
}

// RankResponse is the /v1/rank reply: the stage-1 top-k, best first,
// score ties broken by ascending alias name.
type RankResponse struct {
	IndexVersion int         `json:"index_version"`
	Subject      string      `json:"subject"`
	Candidates   []Candidate `json:"candidates"`
}

// RescoreResponse is the /v1/rescore reply: the stage-2 rescoring of the
// requested candidates, best first.
type RescoreResponse struct {
	IndexVersion int         `json:"index_version"`
	Subject      string      `json:"subject"`
	Rescored     []Candidate `json:"rescored"`
}

// MatchResponse is the /v1/match reply — the full two-stage §IV-I outcome,
// field-for-field the facade's MatchResult plus the index version and the
// decision threshold.
type MatchResponse struct {
	IndexVersion int         `json:"index_version"`
	Subject      string      `json:"subject"`
	Candidates   []Candidate `json:"candidates"`
	Rescored     []Candidate `json:"rescored"`
	Best         *Candidate  `json:"best,omitempty"`
	Accepted     bool        `json:"accepted"`
	Threshold    float64     `json:"threshold"`
}

// HealthResponse is the /v1/healthz reply. Healthz stays reachable while
// draining (Status flips to "draining") so orchestrators can watch the
// drain progress. Reloads counts installed snapshots (the initial load is
// 1); LastJournalSeq appears only for store-backed corpora and is the
// journal sequence the live snapshot was built from, so an operator can
// compare it against the writer's position to see how stale the server is.
type HealthResponse struct {
	Status         string  `json:"status"`
	IndexVersion   int     `json:"index_version"`
	KnownSubjects  int     `json:"known_subjects"`
	QuerySubjects  int     `json:"query_subjects"`
	Reloads        int     `json:"reloads"`
	LastJournalSeq *uint64 `json:"last_journal_seq,omitempty"`
	Draining       bool    `json:"draining"`
}

// decodeRequest strictly decodes one JSON request body into dst: bodies
// over limit (when limit > 0), malformed JSON, unknown fields, and
// trailing data are all rejected with a structured *Error. It never
// panics on hostile input (FuzzDecodeRequest pins this).
func decodeRequest(data []byte, limit int64, dst any) *Error {
	if limit > 0 && int64(len(data)) > limit {
		return errPayloadTooLarge(limit)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		if field, ok := unknownField(err); ok {
			return errUnknownField(field)
		}
		return errInvalidJSON(err.Error())
	}
	// A request is exactly one JSON value; trailing data means the client
	// framed the body wrong.
	if dec.More() {
		return errInvalidJSON("trailing data after the request object")
	}
	return nil
}

// unknownField extracts the field name from encoding/json's
// DisallowUnknownFields error, which is only exposed as text.
func unknownField(err error) (string, bool) {
	const marker = `unknown field `
	s := err.Error()
	i := strings.Index(s, marker)
	if i < 0 {
		return "", false
	}
	return s[i+len(marker):], true
}

// validate rejects a SubjectSpec that names no subject or names one both
// ways. It returns nil for well-formed specs; resolution errors (alias not
// found, bad timestamps) surface later.
func (s *SubjectSpec) validate() *Error {
	inline := s.Name != "" || len(s.Messages) > 0
	switch {
	case s.Alias == "" && !inline:
		return errInvalidRequest("subject: set \"alias\" or an inline \"name\" + \"messages\"")
	case s.Alias != "" && inline:
		return errInvalidRequest("subject: \"alias\" and inline \"name\"/\"messages\" are mutually exclusive")
	case s.Alias == "" && s.Name == "":
		return errInvalidRequest("subject: inline subjects need a \"name\"")
	case s.Alias == "" && len(s.Messages) == 0:
		return errInvalidRequest("subject: inline subjects need at least one message")
	}
	return nil
}

// writeJSON writes one response value with the given status. Encoding is
// compact with a trailing newline; struct field order makes the bytes
// deterministic.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		// Responses are plain structs of strings/numbers; Marshal cannot
		// fail on them. Guard anyway rather than panic the connection.
		http.Error(w, `{"error":{"code":"internal","message":"response encoding failed","status":500}}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)+1))
	w.WriteHeader(status)
	//lint:ignore errdrop a failed response write means the client hung up; there is no one left to report to
	w.Write(append(data, '\n'))
}

// writeError writes the structured envelope for e, including a Retry-After
// header when the error carries a wait hint.
func writeError(w http.ResponseWriter, e *Error) {
	if e.retryAfter > 0 {
		secs := int64(e.retryAfter / time.Second)
		if e.retryAfter%time.Second != 0 {
			secs++
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, e.Status, errorEnvelope{Error: e})
}
