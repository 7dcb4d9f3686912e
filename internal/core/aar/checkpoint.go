package aar

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"flowkv/internal/ckpt"
	"flowkv/internal/window"
)

// CheckpointDelta writes a segmented snapshot of the instance into dir.
// Per the paper's §8, in-memory data is flushed to disk first, so the
// on-disk files form the snapshot and can be copied while processing
// resumes; the cut is the instant the buffer is detached inside that
// flush, and only ioMu is held, so concurrent Appends proceed. Each
// per-window log is recorded as an ordered list of sealed segment
// files plus a SEGMENTS manifest. When parent (the decoded SEGMENTS of
// the previous checkpoint generation, rooted at parentDir) still
// describes a prefix of a live log — same file epoch, recorded length
// not past the live size — the parent's segments are hard-linked across
// and only the appended tail is copied; otherwise that file falls back
// to a full single-segment copy. Nothing is fsynced here: the returned
// Result names every file that still needs a sync, and the composite
// store batches those into one group-commit window before the
// checkpoint's atomic rename.
func (s *Store) CheckpointDelta(dir string, parent *ckpt.Meta, parentDir string) (*ckpt.Result, error) {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	fsys := s.dir.FS()
	if err := s.flushAllLocked(); err != nil {
		return nil, err
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("aar: checkpoint: %w", err)
	}
	wins := make([]window.Window, 0, len(s.files))
	for w := range s.files {
		wins = append(wins, w)
	}
	sort.Slice(wins, func(i, j int) bool {
		if wins[i].Start != wins[j].Start {
			return wins[i].Start < wins[j].Start
		}
		return wins[i].End < wins[j].End
	})
	res := &ckpt.Result{}
	meta := &ckpt.Meta{CutID: ckpt.Rand64()}
	for _, w := range wins {
		l := s.files[w]
		if err := l.Flush(); err != nil {
			return nil, err
		}
		logical := windowFileName(w)
		epoch := s.epochs[w]
		if epoch == 0 {
			epoch = ckpt.Rand64()
			s.epochs[w] = epoch
		}
		size := l.Size()
		fstate := ckpt.FileState{Logical: logical, Epoch: epoch}
		var from int64
		// A parent with zero recorded bytes is not reused: its (empty)
		// segment list would put the fresh tail at offset 0 and collide
		// with any zero-offset segment name. An empty live file simply
		// records no segments — Materialize recreates it empty.
		if p := parent.File(logical); p != nil && p.Epoch == epoch &&
			p.TotalLen() > 0 && p.TotalLen() <= size {
			if err := ckpt.LinkSegments(fsys, parentDir, dir, p.Segments, res); err != nil {
				return nil, err
			}
			fstate.Segments = append(fstate.Segments, p.Segments...)
			from = p.TotalLen()
		}
		if tail := size - from; tail > 0 {
			name := ckpt.SegmentName(logical, from)
			crc, err := ckpt.CopyRange(fsys, l.Path(), from, tail, filepath.Join(dir, name))
			if err != nil {
				return nil, err
			}
			seg := ckpt.Segment{Name: name, Len: tail, CRC: crc}
			fstate.Segments = append(fstate.Segments, seg)
			res.Entries = append(res.Entries, ckpt.Entry{Path: name, Size: tail, CRC: crc})
			res.NeedSync = append(res.NeedSync, filepath.Join(dir, name))
			res.CopiedBytes += tail
		}
		meta.Files = append(meta.Files, fstate)
	}
	if err := ckpt.FinishMeta(fsys, dir, meta, res); err != nil {
		return nil, err
	}
	return res, nil
}

// Restore rebuilds an instance's state from a checkpoint directory
// written by CheckpointDelta. The store must be freshly opened (empty).
// Each file is materialized by concatenating its segments and keeps its
// file epoch, so the delta chain can continue across a restart.
func (s *Store) Restore(dir string) error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if len(s.buf) != 0 {
		s.mu.Unlock()
		return fmt.Errorf("aar: restore into a non-empty store")
	}
	s.mu.Unlock()
	if len(s.files) != 0 {
		return fmt.Errorf("aar: restore into a non-empty store")
	}
	fsys := s.dir.FS()
	meta, err := ckpt.ReadMeta(fsys, dir)
	if err != nil {
		return fmt.Errorf("aar: restore: %w", err)
	}
	for i := range meta.Files {
		fstate := &meta.Files[i]
		w, ok := parseWindowFileName(fstate.Logical)
		if !ok {
			return fmt.Errorf("aar: restore: unexpected logical file %q", fstate.Logical)
		}
		if err := ckpt.Materialize(fsys, dir, fstate, filepath.Join(s.dir.Root(), fstate.Logical)); err != nil {
			return fmt.Errorf("aar: restore: %w", err)
		}
		l, err := s.dir.Open(fstate.Logical)
		if err != nil {
			return err
		}
		s.files[w] = l
		s.epochs[w] = fstate.Epoch
	}
	return nil
}

// parseWindowFileName inverts windowFileName.
func parseWindowFileName(name string) (window.Window, bool) {
	if !strings.HasPrefix(name, "win_") || !strings.HasSuffix(name, ".log") {
		return window.Window{}, false
	}
	var start, end int64
	if _, err := fmt.Sscanf(name, "win_%d_%d.log", &start, &end); err != nil {
		return window.Window{}, false
	}
	return window.Window{Start: start, End: end}, true
}
