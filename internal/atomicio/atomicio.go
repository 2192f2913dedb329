// Package atomicio writes files with power-loss-safe durability: data is
// staged in a temporary file in the destination directory, fsynced,
// renamed over the target, and the parent directory is fsynced so the
// rename itself survives a crash. This is the write path used for every
// artifact that must never be observed truncated or half-written — the
// paper's tables, figures and reports, saved platforms, models and run
// manifests.
package atomicio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFile atomically and durably replaces path with data. On return
// without error, either the old content or the new content is on disk in
// full — never a mixture, never a truncation — even across power loss:
//
//  1. the data is written to a temporary file next to path,
//  2. the temporary file is fsynced (content reaches the platters),
//  3. the temporary file is renamed over path (atomic on POSIX),
//  4. the parent directory is fsynced (the rename reaches the platters).
//
// On any error the temporary file is removed and the previous content of
// path is untouched.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	return WriteStream(path, perm, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// WriteStream atomically and durably replaces path with whatever fn
// writes. It follows the same stage→fsync→rename→dir-fsync sequence as
// WriteFile, but lets the caller stream into an io.Writer instead of
// materializing the full artifact in memory first (Prometheus dumps,
// JSONL traces, Perfetto exports). If fn returns an error, the staged
// temporary is removed and the previous content of path is untouched —
// a crash or failure mid-write can never leave a torn artifact behind.
func WriteStream(path string, perm os.FileMode, fn func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("atomicio: stage %s: %w", path, err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := fn(tmp); err != nil {
		return fmt.Errorf("atomicio: write %s: %w", path, err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return fmt.Errorf("atomicio: chmod %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("atomicio: sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("atomicio: close %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("atomicio: rename %s: %w", path, err)
	}
	tmp = nil // renamed away: nothing to clean up
	if err := SyncDir(dir); err != nil {
		return fmt.Errorf("atomicio: %s: %w", path, err)
	}
	return nil
}

// MkdirAll creates dir and any missing parents like os.MkdirAll, then
// fsyncs every directory it actually created (deepest first) plus the
// parent of the topmost new one, so the whole fresh chain survives power
// loss. Creating an artifact directory with a bare os.MkdirAll leaves
// the new entries only in the page cache: a crash right after could
// silently drop the directory and every artifact written into it.
func MkdirAll(dir string, perm os.FileMode) error {
	dir = filepath.Clean(dir)
	// Walk up to the first ancestor that already exists.
	var created []string
	p := dir
	for {
		if _, err := os.Stat(p); err == nil {
			break
		} else if !os.IsNotExist(err) {
			return fmt.Errorf("atomicio: mkdir %s: %w", dir, err)
		}
		created = append(created, p)
		parent := filepath.Dir(p)
		if parent == p {
			break
		}
		p = parent
	}
	if err := os.MkdirAll(dir, perm); err != nil {
		return fmt.Errorf("atomicio: mkdir %s: %w", dir, err)
	}
	if len(created) == 0 {
		return nil
	}
	// Sync deepest-first, then the surviving parent that gained the
	// topmost new entry.
	for _, c := range created {
		if err := SyncDir(c); err != nil {
			return fmt.Errorf("atomicio: mkdir %s: %w", dir, err)
		}
	}
	top := created[len(created)-1]
	if parent := filepath.Dir(top); parent != top {
		if err := SyncDir(parent); err != nil {
			return fmt.Errorf("atomicio: mkdir %s: %w", dir, err)
		}
	}
	return nil
}

// SyncDir fsyncs a directory so that a just-created, renamed or removed
// entry in it survives power loss. Platforms whose directory handles
// reject fsync (some network and FAT filesystems) report ineffectiveness
// through the returned error; Linux local filesystems support it.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("sync dir: %w", err)
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("sync dir %s: %w", dir, err)
	}
	return d.Close()
}
