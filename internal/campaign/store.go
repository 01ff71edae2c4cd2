package campaign

// Store is a directory-backed checkpoint store for campaigns. Each cell
// index owns two files: cell-NNNN.result (the completed verdict, encoded
// with EncodeResult) and cell-NNNN.snap (a mid-cell CellRun snapshot).
// Writes go through a temp file plus rename, so a crash mid-write leaves
// either the old file or none — never a torn one; corrupt files (e.g. from
// a torn snapshot on a filesystem without atomic rename) are indistinguished
// from absent ones by Load, so the worst case is re-running a cell. A
// result supersedes a snapshot: saving the result deletes the snapshot.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Store persists per-cell campaign progress under one directory.
type Store struct {
	dir string
}

// OpenStore creates (if needed) and opens the directory, sweeping out
// temp-file litter a crashed (SIGKILLed) writer left behind. The open
// happens under the caller's exclusive ownership of the cell store — in
// the jobs layer, after the execution's lease is won — so no live writer
// can be mid-rename here.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("campaign: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: open store: %w", err)
	}
	CleanTmp(dir)
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) resultPath(i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("cell-%04d.result", i))
}

func (s *Store) snapPath(i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("cell-%04d.snap", i))
}

// WriteAtomic writes data to path through a temp file in the same directory
// and a rename, so a crash mid-write leaves the old file or none.
func WriteAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// CleanTmp removes WriteAtomic temp litter from dir — files a killed
// process created but never renamed. Only call it on a directory no live
// writer is using: deleting an in-flight temp file fails that writer's
// rename.
func CleanTmp(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		if strings.Contains(ent.Name(), ".tmp-") {
			os.Remove(filepath.Join(dir, ent.Name()))
		}
	}
}

// SaveResult records a completed cell and retires its snapshot.
func (s *Store) SaveResult(i int, res CellResult) error {
	if err := WriteAtomic(s.resultPath(i), EncodeResult(res)); err != nil {
		return fmt.Errorf("campaign: save result %d: %w", i, err)
	}
	os.Remove(s.snapPath(i))
	return nil
}

// LoadResult fetches a completed cell's verdict. ok is false when the cell
// has no (readable, well-formed) result on disk.
func (s *Store) LoadResult(i int) (res CellResult, ok bool, err error) {
	data, rerr := os.ReadFile(s.resultPath(i))
	if rerr != nil {
		return res, false, nil
	}
	res, derr := DecodeResult(data)
	if derr != nil {
		return CellResult{}, false, nil
	}
	return res, true, nil
}

// SaveSnap records a mid-cell snapshot.
func (s *Store) SaveSnap(i int, data []byte) error {
	if err := WriteAtomic(s.snapPath(i), data); err != nil {
		return fmt.Errorf("campaign: save snapshot %d: %w", i, err)
	}
	return nil
}

// LoadSnap fetches a mid-cell snapshot, ok=false when absent.
func (s *Store) LoadSnap(i int) (data []byte, ok bool) {
	data, err := os.ReadFile(s.snapPath(i))
	if err != nil {
		return nil, false
	}
	return data, true
}
