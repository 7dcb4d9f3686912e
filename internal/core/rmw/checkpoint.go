package rmw

import (
	"fmt"
	"path/filepath"

	"flowkv/internal/binio"
	"flowkv/internal/ckpt"
	"flowkv/internal/faultfs"
)

// Delta checkpoints persist the RMW store as a replay stream: one
// logical file (deltaLogical) whose segments, concatenated in order,
// form a sequence of kind-prefixed records — a full dump of live
// aggregates as upserts at the chain's base, then per checkpoint one
// segment holding exactly the identities mutated since the parent's cut
// (upserts carry the aggregate, tombstones record a fetch-&-remove).
// Restore replays the stream into a fresh live log.
const deltaLogical = "rmw.dlt"

const (
	deltaKindUpsert    byte = 0
	deltaKindTombstone byte = 1
)

// segWriter streams kind-prefixed records into one segment file,
// accumulating the framed bytes' length and CRC32C for the manifest.
// Nothing is fsynced; the caller adds the file to the group-commit sync
// window.
type segWriter struct {
	f    faultfs.File
	rec  []byte
	crc  uint32
	size int64
}

func (w *segWriter) emit(payload []byte) error {
	w.rec = binio.AppendRecord(w.rec[:0], payload)
	if _, err := w.f.Write(w.rec); err != nil {
		return err
	}
	w.crc = binio.ChecksumUpdate(w.crc, w.rec)
	w.size += int64(len(w.rec))
	return nil
}

// CheckpointDelta writes a segmented snapshot of the instance into dir.
// The cut is one mu critical section. When the parent checkpoint's cut
// matches this instance's last committed cut, it snapshots the deltas
// map: only identities mutated since then are written (as upserts or
// tombstones) and the parent's segments are hard-linked across.
// Otherwise it snapshots the live state directly — every buffered
// aggregate (aliased, not copied — Put installs fresh slices, never
// mutates in place) and every index span not superseded by a buffered
// copy — as the base of a new chain. Snapshotting inside the cut is what
// makes it exact under concurrent writers: a Put that lands after the
// cut retires its identity's index entry immediately (under mu alone),
// so re-reading the live index later could miss an aggregate that was
// acknowledged before it; the snapshotted spans stay readable because
// compaction needs ioMu, which CheckpointDelta holds. The first cut also
// arms the deltas map: a store that never checkpoints records no marks.
// The returned Result's Commit hook
// must be invoked only after the enclosing checkpoint's atomic rename:
// it retires the delta marks this cut absorbed (identities re-dirtied
// mid-write keep their newer marks) and records the cut id the next
// delta will extend. An uncommitted cut leaves the marks in place, so a
// failed checkpoint merely re-ships those identities next time.
func (s *Store) CheckpointDelta(dir string, parent *ckpt.Meta, parentDir string) (*ckpt.Result, error) {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	fsys := s.dir.FS()

	// The cut. flushing is always nil here: flushes run under ioMu.
	type pending struct {
		ident id
		tomb  bool
		v     []byte // buffered value (aliased; Put never mutates in place)
		sp    span   // on-disk span, valid when v is nil and !tomb
	}
	var pstate *ckpt.FileState
	if parent != nil {
		pstate = parent.File(deltaLogical)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.deltas == nil {
		s.deltas = make(map[id]deltaMark)
	}
	incremental := pstate != nil && parent.CutID != 0 && parent.CutID == s.lastCutID
	cutSeqs := make(map[id]uint64, len(s.deltas))
	for ident, m := range s.deltas {
		cutSeqs[ident] = m.seq
	}
	var work []pending
	if incremental {
		for ident, m := range s.deltas {
			switch {
			case m.tomb:
				work = append(work, pending{ident: ident, tomb: true})
			default:
				if v, ok := s.buf[ident]; ok {
					work = append(work, pending{ident: ident, v: v})
				} else if sp, ok := s.index[ident]; ok {
					work = append(work, pending{ident: ident, sp: sp})
				} else {
					// An upsert mark without live state cannot happen (a
					// consume always leaves a newer tombstone mark); keep
					// the snapshot sound anyway.
					work = append(work, pending{ident: ident, tomb: true})
				}
			}
		}
	} else {
		for ident, v := range s.buf {
			work = append(work, pending{ident: ident, v: v})
		}
		for ident, sp := range s.index {
			if _, buffered := s.buf[ident]; buffered {
				continue // the buffered copy is newer
			}
			work = append(work, pending{ident: ident, sp: sp})
		}
	}
	s.mu.Unlock()

	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("rmw: checkpoint: %w", err)
	}
	res := &ckpt.Result{}
	meta := &ckpt.Meta{CutID: ckpt.Rand64()}
	fstate := ckpt.FileState{Logical: deltaLogical, Epoch: ckpt.Rand64()}
	var from int64
	if incremental {
		if err := ckpt.LinkSegments(fsys, parentDir, dir, pstate.Segments, res); err != nil {
			return nil, err
		}
		fstate.Segments = append(fstate.Segments, pstate.Segments...)
		fstate.Epoch = pstate.Epoch
		from = pstate.TotalLen()
	}
	name := ckpt.SegmentName(deltaLogical, from)
	f, err := fsys.Create(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	sw := &segWriter{f: f}
	var payload []byte
	for _, p := range work {
		switch {
		case p.tomb:
			payload = append(payload[:0], deltaKindTombstone)
			payload = encodeEntry(payload, p.ident, nil)
		case p.v != nil:
			payload = append(payload[:0], deltaKindUpsert)
			payload = encodeEntry(payload, p.ident, p.v)
		default:
			// Spans stay readable under ioMu: compaction, which would
			// move them, also needs ioMu.
			entry, err := s.log.ReadRecordAt(p.sp.off, p.sp.n)
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("rmw: checkpoint %q: %w", p.ident.key, err)
			}
			payload = append(payload[:0], deltaKindUpsert)
			payload = append(payload, entry...)
		}
		if err := sw.emit(payload); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if sw.size == 0 {
		// No records this cut. Recording a zero-length segment would make
		// the next delta's segment start at the same offset and collide
		// with this one's name, so drop the file instead.
		if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
			return nil, err
		}
	} else {
		fstate.Segments = append(fstate.Segments, ckpt.Segment{Name: name, Len: sw.size, CRC: sw.crc})
		res.Entries = append(res.Entries, ckpt.Entry{Path: name, Size: sw.size, CRC: sw.crc})
		res.NeedSync = append(res.NeedSync, filepath.Join(dir, name))
		res.CopiedBytes += sw.size
	}
	meta.Files = append(meta.Files, fstate)
	if err := ckpt.FinishMeta(fsys, dir, meta, res); err != nil {
		return nil, err
	}
	cut := meta.CutID
	res.Commit = func() {
		s.mu.Lock()
		for ident, seq := range cutSeqs {
			if cur, ok := s.deltas[ident]; ok && cur.seq == seq {
				delete(s.deltas, ident)
			}
		}
		s.lastCutID = cut
		s.mu.Unlock()
	}
	return res, nil
}

// Restore rebuilds a freshly-opened (empty) instance from a checkpoint
// directory written by CheckpointDelta.
func (s *Store) Restore(dir string) error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if len(s.buf) != 0 || len(s.index) != 0 {
		s.mu.Unlock()
		return fmt.Errorf("rmw: restore into a non-empty store")
	}
	s.mu.Unlock()
	if s.log.Size() != 0 {
		return fmt.Errorf("rmw: restore into a non-empty store")
	}
	// The delta stream is replayed: upserts append to a fresh live log in
	// arrival order (a later upsert of the same identity supersedes,
	// leaving dead bytes) and tombstones drop the identity. The cut id
	// carries over so the delta chain continues across the restart.
	meta, err := ckpt.ReadMeta(s.dir.FS(), dir)
	if err != nil {
		return fmt.Errorf("rmw: restore: %w", err)
	}
	return s.restoreDelta(dir, meta)
}

// restoreDelta replays a segmented checkpoint's delta stream; the caller
// (Restore) holds ioMu and has verified the store is empty.
func (s *Store) restoreDelta(dir string, meta *ckpt.Meta) error {
	fstate := meta.File(deltaLogical)
	if fstate == nil {
		return fmt.Errorf("rmw: restore: SEGMENTS lacks %s", deltaLogical)
	}
	fsys := s.dir.FS()
	oldLog := s.log
	if err := s.openGen(s.gen + 1); err != nil {
		return err
	}
	oldLog.Remove()
	newIndex := make(map[id]span)
	var dead int64
	for _, seg := range fstate.Segments {
		f, err := fsys.Open(filepath.Join(dir, seg.Name))
		if err != nil {
			return err
		}
		sc := binio.NewRecordScanner(f, 0)
		for sc.Scan() {
			rec := sc.Record()
			if len(rec) == 0 {
				f.Close()
				return fmt.Errorf("rmw: restore: empty delta record in %s", seg.Name)
			}
			kind, entry := rec[0], rec[1:]
			key, w, _, err := decodeEntry(entry)
			if err != nil {
				f.Close()
				return fmt.Errorf("rmw: restore: %w", err)
			}
			ident := id{key: string(key), w: w}
			switch kind {
			case deltaKindTombstone:
				if sp, ok := newIndex[ident]; ok {
					dead += int64(sp.n)
					delete(newIndex, ident)
				}
			case deltaKindUpsert:
				off, n, err := s.log.Append(entry)
				if err != nil {
					f.Close()
					return err
				}
				if sp, ok := newIndex[ident]; ok {
					dead += int64(sp.n)
				}
				newIndex[ident] = span{off: off, n: n}
			default:
				f.Close()
				return fmt.Errorf("rmw: restore: unknown delta record kind %d in %s", kind, seg.Name)
			}
		}
		err = sc.Err()
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("rmw: restore %s: %w", seg.Name, err)
		}
	}
	if err := s.log.Flush(); err != nil {
		return err
	}
	s.mu.Lock()
	s.index = newIndex
	s.dead = dead
	s.lastCutID = meta.CutID
	s.deltas = make(map[id]deltaMark) // armed: the chain continues from here
	s.mu.Unlock()
	return nil
}
