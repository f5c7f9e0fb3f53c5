package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"darklight/internal/forum"
)

// The journal is the snapshot's write-ahead side: one JSON line per
// scraped thread delta, each stamped with a monotonically increasing
// sequence number. The snapshot records the last sequence it has folded
// in (header.LastSeq), so crash recovery is idempotent — cold start
// loads the snapshot and replays only entries above LastSeq, whether or
// not the previous process got around to compacting.
//
// Torn-tail discipline is forum.ScanTornTail's, shared with the scrape
// checkpoint; mid-file corruption fails the load with a structured error.

// JournalEntry is one appended thread delta.
type JournalEntry struct {
	Seq    uint64             `json:"seq"`
	Thread forum.ThreadRecord `json:"thread"`
}

// readJournal reads and parses the journal file, dropping at most a torn
// final line. It returns the file's bytes (nil when there is no file), the
// entries and the number of bytes the intact prefix spans (for compaction).
// Damage is a *CorruptError with Section "journal" and the file's path.
func (s *Store) readJournal() (raw []byte, entries []JournalEntry, intact int, err error) {
	raw, err = os.ReadFile(s.JournalPath())
	switch {
	case errors.Is(err, os.ErrNotExist):
		return nil, nil, 0, nil
	case err != nil:
		return nil, nil, 0, fmt.Errorf("store: journal read: %w", err)
	}
	var lastSeq uint64
	intact, err = forum.ScanTornTail(bytes.NewReader(raw), func(lineNo int, line []byte) error {
		var e JournalEntry
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&e); err != nil {
			return forum.ErrTornLine
		}
		if e.Seq <= lastSeq {
			return corrupt("journal", "line %d: sequence %d not increasing (previous %d)", lineNo, e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		entries = append(entries, e)
		return nil
	})
	if err != nil {
		var ce *CorruptError
		if !errors.As(err, &ce) {
			err = corrupt("journal", "%v", err)
		}
		fillPath(err, s.JournalPath())
		return nil, nil, 0, err
	}
	return raw, entries, intact, nil
}

// appendJournalLine encodes one entry as a single JSON line.
func appendJournalLine(f *os.File, e JournalEntry) error {
	enc := json.NewEncoder(f)
	if err := enc.Encode(&e); err != nil {
		return fmt.Errorf("store: journal append: %w", err)
	}
	// The delta must be durable before the scrape acknowledges the thread;
	// otherwise a crash could lose a delta the snapshot will never see.
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: journal sync: %w", err)
	}
	return nil
}
