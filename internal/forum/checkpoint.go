package forum

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// A scrape checkpoint is a JSONL journal of completed crawl units: one
// ThreadRecord per line, appended as each thread finishes. A crawl killed
// mid-run re-reads the journal and skips every thread already recorded,
// so interrupted collection resumes without refetching. The format is
// append-only on purpose — a kill can at worst truncate the final line,
// which ReadCheckpoint tolerates by dropping it.

// ThreadRecord is one fully collected thread in a scrape checkpoint.
type ThreadRecord struct {
	// Thread is the thread id as discovered in the board listing.
	Thread string `json:"thread"`
	// Messages are the thread's posts in page order.
	Messages []Message `json:"messages"`
}

// WriteThreadRecord appends one record to the journal as a single JSONL
// line. Callers serialise concurrent appends themselves.
func WriteThreadRecord(w io.Writer, rec *ThreadRecord) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(rec); err != nil {
		return fmt.Errorf("forum: checkpoint thread %q: %w", rec.Thread, err)
	}
	return nil
}

// ReadCheckpoint reads a checkpoint journal back into records, in journal
// order, under ScanTornTail's rule: a malformed final line is dropped
// silently, a malformed line anywhere else errors. Blank lines are skipped.
// Later records win when a thread appears twice.
func ReadCheckpoint(r io.Reader) ([]ThreadRecord, error) {
	var recs []ThreadRecord
	_, err := ScanTornTail(r, func(_ int, raw []byte) error {
		if len(raw) == 0 {
			return errSkipLine
		}
		var rec ThreadRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return ErrTornLine
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("forum: checkpoint %w", err)
	}
	return recs, nil
}

// What a ScanTornTail callback returns for a line that does not decode, and
// for one that is neither a record nor damage.
var (
	ErrTornLine = errors.New("line does not decode")
	errSkipLine = errors.New("skip line")
)

// ScanTornTail reads an append-only JSONL journal under the one rule its
// readers share: a kill in the middle of an append leaves a final line that
// does not decode, and exactly that line is tolerated; an undecodable line
// with another line after it is mid-file corruption. Each line, at most
// 16 MB, goes to decode with its 1-based number: nil takes it as a record,
// ErrTornLine says it does not decode, any other error ends the scan and is
// returned as it is. intact counts the bytes of the records before the torn
// line — what a compaction keeps.
func ScanTornTail(r io.Reader, decode func(lineNo int, line []byte) error) (intact int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24) // a record holds a whole thread
	torn := 0
	for lineNo := 1; sc.Scan(); lineNo++ {
		err := decode(lineNo, sc.Bytes())
		switch {
		case err == errSkipLine:
		case torn != 0: // a line after the bad one: that was no truncated tail
			return 0, fmt.Errorf("line %d: corrupt record", torn)
		case err == ErrTornLine:
			torn = lineNo
		case err != nil:
			return 0, err
		default:
			intact += len(sc.Bytes()) + 1
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("scan: %w", err)
	}
	return intact, nil
}
