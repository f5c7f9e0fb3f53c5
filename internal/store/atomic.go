package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// WriteFileAtomic replaces path with data using the sibling-tmp + fsync +
// atomic-rename discipline: the bytes are written to a temporary file in
// the same directory, flushed to stable storage, renamed over the
// destination in one atomic step, and the directory entry is synced so the
// rename itself survives a power cut. A crash at any point leaves either
// the complete old file or the complete new file at path — never a
// truncated or interleaved hybrid, which is what a plain in-place
// os.WriteFile risks between its truncate and its final write.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	return writeAtomic(path, perm, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

// writeAtomic is WriteFileAtomic with the bytes produced by fill, which
// writes the sibling file however it likes — a snapshot streams into it.
func writeAtomic(path string, perm os.FileMode, fill func(*os.File) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: atomic write %s: %w", path, err)
	}
	tmpName := tmp.Name()
	// Any failure before the rename removes the sibling and leaves the
	// destination untouched; a failed cleanup is reported beside the error.
	fail := func(op string, opErr error) error {
		return fmt.Errorf("store: atomic write %s: %s: %w", path, op, errors.Join(opErr, tmp.Close(), os.Remove(tmpName)))
	}
	if err := fill(tmp); err != nil {
		return fail("write", err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return fail("chmod", err)
	}
	if err := tmp.Sync(); err != nil {
		return fail("fsync", err)
	}
	if err := tmp.Close(); err != nil {
		//lint:ignore errdrop close already failed; removing the sibling is best-effort cleanup
		os.Remove(tmpName)
		return fmt.Errorf("store: atomic write %s: close: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		//lint:ignore errdrop rename failed; removing the sibling is best-effort cleanup
		os.Remove(tmpName)
		return fmt.Errorf("store: atomic write %s: rename: %w", path, err)
	}
	return syncDir(dir)
}

// syncDir flushes a directory so a just-renamed entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: sync dir %s: %w", dir, err)
	}
	if err := d.Sync(); err != nil {
		//lint:ignore errdrop the sync error is the one reported; double-closing a read-only handle has no further failure mode
		d.Close()
		return fmt.Errorf("store: sync dir %s: %w", dir, err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("store: sync dir %s: %w", dir, err)
	}
	return nil
}
