package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"

	"darklight/internal/forum"
)

const (
	snapshotName = "index.snap"
	journalName  = "journal.jsonl"
	lockName     = "journal.lock"
)

// Store manages one index directory: a snapshot file (index.snap, the
// framed binary format) plus an append-only journal of thread deltas
// (journal.jsonl). Save replaces the snapshot atomically; AppendThread
// records deltas durably between saves; on cold start Load + ReadJournal
// + Replay reconstruct the current index without a full rebuild.
//
// A Store serialises its own writers, and whatever opens, writes or
// replaces the journal file does so under an exclusive advisory lock
// (flock on journal.lock), so one process may append while another
// compacts. Sequence numbers are still handed out per handle: there must
// be only one appending process per directory.
type Store struct {
	dir string

	mu      sync.Mutex
	nextSeq uint64
}

// Open prepares an index directory, creating it if needed. If a previous
// process was killed mid-append, the journal's torn final line is
// repaired (atomically rewritten away) so later appends start on a fresh
// line; mid-file journal corruption fails Open.
//
// Appends continue after the highest sequence number the directory has
// seen: the journal's tail or, when CompactJournal has dropped the folded
// entries, the LastSeq in the snapshot's fixed header. (From the journal
// alone a fresh handle on a compacted directory would restart at 1, and an
// index whose LastSeq is past that skips those deltas on replay.) Only the
// header is read — it has one layout in every format version, so a snapshot
// this build cannot load still says where the sequence stands; an
// unreadable one fails Open.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Store{dir: dir}
	lastSeq, err := s.snapshotLastSeq()
	if err != nil {
		return nil, err
	}
	unlock, err := s.lockJournal()
	if err != nil {
		return nil, err
	}
	defer unlock()
	raw, entries, intact, err := s.readJournal()
	if err != nil {
		return nil, err
	}
	if intact < len(raw) {
		if err := WriteFileAtomic(s.JournalPath(), raw[:intact], 0o644); err != nil {
			return nil, err
		}
	}
	if n := len(entries); n > 0 {
		lastSeq = max(lastSeq, entries[n-1].Seq)
	}
	s.nextSeq = lastSeq + 1
	return s, nil
}

// snapshotLastSeq reads the journal sequence the snapshot has folded in
// from its fixed header; 0 when there is no snapshot.
func (s *Store) snapshotLastSeq() (uint64, error) {
	f, err := os.Open(s.SnapshotPath())
	switch {
	case errors.Is(err, os.ErrNotExist):
		return 0, nil
	case err != nil:
		return 0, fmt.Errorf("store: open %s: %w", s.dir, err)
	}
	defer f.Close()
	buf := make([]byte, headerLen)
	n, err := io.ReadFull(f, buf)
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return 0, fmt.Errorf("store: open %s: %w", s.dir, err)
	}
	h, _, herr := decodeHeader(&reader{b: buf[:n]})
	var ve *VersionError
	if herr != nil && !errors.As(herr, &ve) {
		fillPath(herr, s.SnapshotPath())
		return 0, herr
	}
	return h.LastSeq, nil
}

// lockJournal takes the directory's exclusive advisory lock, blocking until
// whoever holds it lets go; the returned function releases it. Appending
// to the journal and renaming a rewritten journal over it both happen under
// the lock, in any process: without it an append could open the old file,
// lose the race with the rename, and fsync its acknowledged delta into an
// inode no name points at any more.
func (s *Store) lockJournal() (unlock func() error, err error) {
	f, err := os.OpenFile(filepath.Join(s.dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: journal lock: %w", err)
	}
	for {
		err = syscall.Flock(int(f.Fd()), syscall.LOCK_EX)
		if err != syscall.EINTR {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("store: journal lock: %w", errors.Join(err, f.Close()))
	}
	// Closing the only descriptor of this open file description drops it.
	return f.Close, nil
}

// Dir reports the directory the store manages.
func (s *Store) Dir() string { return s.dir }

// SnapshotPath is the snapshot file path inside the store directory.
func (s *Store) SnapshotPath() string { return filepath.Join(s.dir, snapshotName) }

// JournalPath is the journal file path inside the store directory.
func (s *Store) JournalPath() string { return filepath.Join(s.dir, journalName) }

// HasSnapshot reports whether a snapshot file exists.
func (s *Store) HasSnapshot() bool {
	_, err := os.Stat(s.SnapshotPath())
	return err == nil
}

// Save streams idx into a sibling file, section by section, and replaces
// the snapshot with it atomically: a crash mid-save leaves the previous
// snapshot intact.
func (s *Store) Save(idx *Index) error {
	return writeAtomic(s.SnapshotPath(), 0o644, func(f *os.File) error { return writeIndex(f, idx) })
}

// Load reads and verifies the snapshot and runs the index pass over it,
// returning a ready-to-serve index. Corruption anywhere — a flipped bit in
// any section, a truncated file, a mangled payload — surfaces as a
// *CorruptError naming the section, never a panic or a silently wrong
// index; an intact snapshot of another format version is a *VersionError.
func (s *Store) Load() (*Index, error) {
	raw, err := os.ReadFile(s.SnapshotPath())
	if err != nil {
		return nil, fmt.Errorf("store: load: %w", err)
	}
	idx, err := decodeIndex(raw)
	if err != nil {
		fillPath(err, s.SnapshotPath())
		return nil, err
	}
	return idx, nil
}

// AppendThread durably appends one scraped thread to the journal and
// returns its sequence number. The line is fsynced before returning, so
// an acknowledged delta survives a crash.
func (s *Store) AppendThread(rec forum.ThreadRecord) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	unlock, err := s.lockJournal()
	if err != nil {
		return 0, err
	}
	defer unlock()
	f, err := os.OpenFile(s.JournalPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, fmt.Errorf("store: journal open: %w", err)
	}
	seq := s.nextSeq
	if err := appendJournalLine(f, JournalEntry{Seq: seq, Thread: rec}); err != nil {
		return 0, errors.Join(err, f.Close())
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("store: journal close: %w", err)
	}
	s.nextSeq = seq + 1
	return seq, nil
}

// ReadJournal returns the journal entries with sequence numbers above
// afterSeq (pass an index's LastSeq to get exactly the deltas it has not
// folded in yet; pass 0 for everything). A torn final line is dropped;
// corruption anywhere else is a *CorruptError.
func (s *Store) ReadJournal(afterSeq uint64) ([]JournalEntry, error) {
	_, entries, _, err := s.readJournal()
	if err != nil {
		return nil, err
	}
	// readJournal has checked that the sequence strictly increases.
	first := sort.Search(len(entries), func(i int) bool { return entries[i].Seq > afterSeq })
	return entries[first:], nil
}

// CompactJournal atomically rewrites the journal keeping only entries
// with sequence numbers above keepAfter — normally the LastSeq of a
// snapshot that was just saved. Crashing between Save and CompactJournal
// is harmless: replay skips the already-folded entries by sequence.
func (s *Store) CompactJournal(keepAfter uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	unlock, err := s.lockJournal()
	if err != nil {
		return err
	}
	defer unlock()
	raw, entries, _, err := s.readJournal()
	if err != nil || raw == nil { // nothing to compact where there is no journal
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range entries {
		if entries[i].Seq <= keepAfter {
			continue
		}
		if err := enc.Encode(&entries[i]); err != nil {
			return fmt.Errorf("store: journal compact: %w", err)
		}
	}
	return WriteFileAtomic(s.JournalPath(), buf.Bytes(), 0o644)
}

// fillPath stamps the file path onto a CorruptError or VersionError
// bubbling up from the path-agnostic decode layer.
func fillPath(err error, path string) {
	var ce *CorruptError
	var ve *VersionError
	switch {
	case errors.As(err, &ce):
		ce.Path = path
	case errors.As(err, &ve):
		ve.Path = path
	}
}
