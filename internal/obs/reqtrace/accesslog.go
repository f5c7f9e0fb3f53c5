package reqtrace

import (
	"encoding/json"

	"darklight/internal/obs"
)

// AccessEntry is one access-log line. Field order is fixed by this struct
// (encoding/json emits struct fields in declaration order), so the JSONL
// output is deterministic and grep/jq-stable: id first, then the trace
// correlation key, then the request shape, then timing, then the
// per-stage breakdown.
type AccessEntry struct {
	ID       string             `json:"id"`
	Trace    string             `json:"trace"`
	Method   string             `json:"method"`
	Endpoint string             `json:"endpoint"`
	Code     int                `json:"code"`
	DurNS    int64              `json:"dur_ns"`
	Bytes    int                `json:"bytes,omitempty"`
	Stages   []obs.StageSummary `json:"stages,omitempty"`
}

// writeAccessLine renders one request as a single JSONL line. The mutex
// makes each line atomic with respect to concurrent requests — lines may
// interleave in any order, but never mid-line.
func (c *Recorder) writeAccessLine(a *Active, info RequestInfo) {
	line, err := json.Marshal(AccessEntry{
		ID:       a.RequestID,
		Trace:    a.TraceID,
		Method:   info.Method,
		Endpoint: info.Endpoint,
		Code:     info.Code,
		DurNS:    info.Duration.Nanoseconds(),
		Bytes:    info.Bytes,
		Stages:   a.tracer.Stages(),
	})
	if err != nil {
		return // strings and integers always marshal
	}
	c.logMu.Lock()
	defer c.logMu.Unlock()
	//lint:ignore errdrop the access log is advisory; a full disk must not fail requests
	c.opts.AccessLog.Write(append(line, '\n'))
}
