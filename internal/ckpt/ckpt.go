// Package ckpt holds the segment machinery shared by the three store
// patterns' incremental (delta) checkpoints. A delta checkpoint records
// each logical store file as an ordered list of sealed segment files:
// segments inherited from the previous checkpoint generation are
// hard-linked into the new directory (copy fallback when the filesystem
// refuses links), and only the bytes written since the last barrier are
// materialized as a fresh tail segment. The per-instance SEGMENTS file
// describes the mapping — logical name, a file epoch identifying the
// live file the segments were cut from, and each segment's length and
// CRC32C — so a later checkpoint can decide reuse against it and a
// restore can concatenate the segments back into live logs. Every
// checkpoint directory stays physically self-contained: links keep the
// shared inodes alive even after the parent generation is deleted.
package ckpt

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"

	"flowkv/internal/binio"
	"flowkv/internal/faultfs"
)

// MetaName is the per-instance segment-manifest file inside a checkpoint
// directory. Every instance snapshot has one; a directory without it is
// not a checkpoint.
const MetaName = "SEGMENTS"

// metaMagic versions the SEGMENTS encoding.
const metaMagic = "flowkv-segments-v1"

// ErrBadMeta reports an undecodable or inconsistent SEGMENTS file.
var ErrBadMeta = errors.New("ckpt: invalid SEGMENTS file")

// Segment is one sealed slice of a logical file, stored as its own file
// inside the instance checkpoint directory.
type Segment struct {
	// Name is the segment's file name (relative to the instance dir).
	Name string
	// Len is the segment's exact byte length.
	Len int64
	// CRC is the CRC32C of the segment's contents.
	CRC uint32
}

// FileState describes one logical store file as an ordered segment list.
type FileState struct {
	// Logical is the live file name the segments reassemble into.
	Logical string
	// Epoch identifies the live file instance the segments were cut
	// from. A checkpoint may extend a parent's segment list only when
	// the live file's epoch still matches the parent's recorded epoch;
	// a mismatch (the file was dropped and recreated, or the store was
	// reopened without a restore) forces a full copy of that file.
	Epoch uint64
	// Segments is the ordered list; their concatenation is the logical
	// file's content at the cut.
	Segments []Segment
}

// TotalLen returns the logical file's length (the sum of segment lengths).
func (f *FileState) TotalLen() int64 {
	var n int64
	for _, s := range f.Segments {
		n += s.Len
	}
	return n
}

// Meta is the decoded SEGMENTS file of one instance checkpoint.
type Meta struct {
	// CutID identifies this checkpoint's cut. RMW delta checkpoints
	// diff against in-memory dirty state, so they additionally require
	// the parent's CutID to match the instance's last committed cut.
	CutID uint64
	// Files lists every logical file, sorted by logical name.
	Files []FileState
}

// File returns the state of a logical file, or nil if absent. A nil
// receiver (no parent checkpoint) returns nil for every name.
func (m *Meta) File(logical string) *FileState {
	if m == nil {
		return nil
	}
	for i := range m.Files {
		if m.Files[i].Logical == logical {
			return &m.Files[i]
		}
	}
	return nil
}

// Rand64 returns a random epoch / cut identifier. Uniqueness is
// probabilistic; epochs only need to avoid colliding across the handful
// of file generations a checkpoint chain can reference.
func Rand64() uint64 {
	return rand.Uint64()
}

// Encode serializes the meta: a header record then one record per file,
// CRC-framed through binio.
func (m *Meta) Encode() []byte {
	var buf, payload []byte
	payload = binio.PutString(payload[:0], metaMagic)
	payload = binio.PutUvarint(payload, m.CutID)
	buf = binio.AppendRecord(buf, payload)
	for _, f := range m.Files {
		payload = binio.PutString(payload[:0], f.Logical)
		payload = binio.PutUvarint(payload, f.Epoch)
		payload = binio.PutUvarint(payload, uint64(len(f.Segments)))
		for _, s := range f.Segments {
			payload = binio.PutString(payload, s.Name)
			payload = binio.PutUvarint(payload, uint64(s.Len))
			payload = binio.PutUint32(payload, s.CRC)
		}
		buf = binio.AppendRecord(buf, payload)
	}
	return buf
}

// DecodeMeta parses a SEGMENTS file. It never panics, whatever the
// input; malformed bytes yield ErrBadMeta. Names are validated, not
// trusted: a logical name must be a plain file name, and each segment
// must be non-empty and named SegmentName(logical, offset) for its
// running offset — exactly what every writer produces — so a crafted
// SEGMENTS file cannot make Materialize or LinkSegments reach outside
// the checkpoint directory.
func DecodeMeta(b []byte) (*Meta, error) {
	bad := func(why string) (*Meta, error) {
		return nil, fmt.Errorf("%w: %s", ErrBadMeta, why)
	}
	header, n, err := binio.ReadRecord(b)
	if err != nil {
		return bad("corrupt header")
	}
	b = b[n:]
	magic, hn, err := binio.String(header)
	if err != nil || magic != metaMagic {
		return bad("bad magic")
	}
	header = header[hn:]
	cut, _, err := binio.Uvarint(header)
	if err != nil {
		return bad("truncated header")
	}
	m := &Meta{CutID: cut}
	for len(b) > 0 {
		rec, n, err := binio.ReadRecord(b)
		if err != nil {
			return bad("corrupt file record")
		}
		b = b[n:]
		logical, fn, err := binio.String(rec)
		if err != nil {
			return bad("truncated file record")
		}
		rec = rec[fn:]
		if logical == "" || logical != filepath.Base(logical) || logical == "." || logical == ".." {
			return bad(fmt.Sprintf("logical name %q is not a plain file name", logical))
		}
		epoch, fn, err := binio.Uvarint(rec)
		if err != nil {
			return bad("truncated file record")
		}
		rec = rec[fn:]
		count, fn, err := binio.Uvarint(rec)
		if err != nil {
			return bad("truncated file record")
		}
		rec = rec[fn:]
		if count > uint64(len(rec)) {
			return bad("segment count exceeds record")
		}
		fs := FileState{Logical: logical, Epoch: epoch}
		var off int64
		for i := uint64(0); i < count; i++ {
			name, sn, err := binio.String(rec)
			if err != nil {
				return bad("truncated segment")
			}
			rec = rec[sn:]
			slen, sn, err := binio.Uvarint(rec)
			if err != nil {
				return bad("truncated segment")
			}
			rec = rec[sn:]
			if len(rec) < 4 {
				return bad("truncated segment")
			}
			crc, err := binio.Uint32(rec[:4])
			if err != nil {
				return bad("truncated segment")
			}
			rec = rec[4:]
			if slen == 0 || slen > math.MaxInt64-uint64(off) {
				return bad(fmt.Sprintf("segment %q has length %d", name, slen))
			}
			if name != SegmentName(logical, off) {
				return bad(fmt.Sprintf("segment %q, want %q", name, SegmentName(logical, off)))
			}
			off += int64(slen)
			fs.Segments = append(fs.Segments, Segment{Name: name, Len: int64(slen), CRC: crc})
		}
		m.Files = append(m.Files, fs)
	}
	return m, nil
}

// WriteMeta writes the SEGMENTS file into dir without fsyncing it (the
// caller's group-commit sync window covers it) and returns its encoded
// bytes so the caller can manifest them without re-reading.
func WriteMeta(fsys faultfs.FS, dir string, m *Meta) ([]byte, error) {
	buf := m.Encode()
	f, err := fsys.Create(filepath.Join(dir, MetaName))
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return buf, nil
}

// WriteExtra writes an auxiliary (non-segmented, rewritten every
// checkpoint) file into dir without fsyncing it and folds it into res:
// manifest entry, sync-window entry, and copied-byte accounting.
func WriteExtra(fsys faultfs.FS, dir, name string, buf []byte, res *Result) error {
	f, err := fsys.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	res.Entries = append(res.Entries, Entry{
		Path: name,
		Size: int64(len(buf)),
		CRC:  binio.Checksum(buf),
	})
	res.NeedSync = append(res.NeedSync, filepath.Join(dir, name))
	res.CopiedBytes += int64(len(buf))
	return nil
}

// FinishMeta writes dir's SEGMENTS file and folds it into res: a
// manifest entry with the encoded bytes' size and CRC, and a sync-window
// entry, since the manifest must be durable before the checkpoint's
// commit rename.
func FinishMeta(fsys faultfs.FS, dir string, m *Meta, res *Result) error {
	buf, err := WriteMeta(fsys, dir, m)
	if err != nil {
		return err
	}
	res.Entries = append(res.Entries, Entry{
		Path: MetaName,
		Size: int64(len(buf)),
		CRC:  binio.Checksum(buf),
	})
	res.NeedSync = append(res.NeedSync, filepath.Join(dir, MetaName))
	return nil
}

// ReadMeta loads and decodes dir's SEGMENTS file. A missing file is an
// error like any other: every instance checkpoint has one.
func ReadMeta(fsys faultfs.FS, dir string) (*Meta, error) {
	b, err := fsys.ReadFile(filepath.Join(dir, MetaName))
	if err != nil {
		return nil, err
	}
	return DecodeMeta(b)
}

// Entry is one file of an instance checkpoint as the top-level MANIFEST
// will record it: path relative to the instance directory, exact size,
// and content CRC32C.
type Entry struct {
	Path string
	Size int64
	CRC  uint32
}

// Result is what an instance's delta checkpoint hands back to the
// composite store: the manifest entries for every file it placed in the
// directory, the files that still need an fsync before the commit rename
// (newly written or copy-fallback data; linked files are already
// durable), byte accounting for the Stats counters, and an optional
// Commit hook the store layer invokes only after the checkpoint's
// MANIFEST rename lands (RMW uses it to retire the dirty set it diffed).
type Result struct {
	Entries     []Entry
	NeedSync    []string
	LinkedBytes int64
	CopiedBytes int64
	Commit      func()
}

// CopyRange copies src's bytes [off, off+n) into a fresh file at dst,
// returning the CRC32C of the written bytes. The destination is not
// fsynced; the caller adds it to the group-commit sync window.
func CopyRange(fsys faultfs.FS, src string, off, n int64, dst string) (uint32, error) {
	in, err := fsys.Open(src)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	out, err := fsys.Create(dst)
	if err != nil {
		return 0, err
	}
	crc := uint32(0)
	buf := make([]byte, 256<<10)
	remaining := n
	pos := off
	for remaining > 0 {
		chunk := int64(len(buf))
		if chunk > remaining {
			chunk = remaining
		}
		if _, err := in.ReadAt(buf[:chunk], pos); err != nil {
			out.Close()
			return 0, err
		}
		if _, err := out.Write(buf[:chunk]); err != nil {
			out.Close()
			return 0, err
		}
		crc = binio.ChecksumUpdate(crc, buf[:chunk])
		pos += chunk
		remaining -= chunk
	}
	if err := out.Close(); err != nil {
		return 0, err
	}
	return crc, nil
}

// LinkSegments carries a parent checkpoint's segments for one logical
// file into dir, hard-linking each (copy fallback), and folds the
// outcome into res: linked segments count as LinkedBytes and need no
// sync; copied ones count as CopiedBytes and join the sync window.
func LinkSegments(fsys faultfs.FS, parentDir, dir string, segs []Segment, res *Result) error {
	for _, seg := range segs {
		src := filepath.Join(parentDir, seg.Name)
		dst := filepath.Join(dir, seg.Name)
		linked, err := faultfs.LinkOrCopy(fsys, src, dst)
		if err != nil {
			return err
		}
		if linked {
			res.LinkedBytes += seg.Len
		} else {
			res.CopiedBytes += seg.Len
			res.NeedSync = append(res.NeedSync, dst)
		}
		res.Entries = append(res.Entries, Entry{Path: seg.Name, Size: seg.Len, CRC: seg.CRC})
	}
	return nil
}

// SegmentName names the segment of a logical file starting at offset
// off. Offsets are zero-padded so lexical order is offset order.
func SegmentName(logical string, off int64) string {
	return fmt.Sprintf("%s.seg-%012d", logical, off)
}

// Materialize concatenates a logical file's segments from dir into a
// fresh file at dst, verifying each segment's recorded length. The
// result is not fsynced: it becomes a live log whose durability the
// store's own sync discipline governs.
func Materialize(fsys faultfs.FS, dir string, fstate *FileState, dst string) error {
	out, err := fsys.Create(dst)
	if err != nil {
		return err
	}
	for _, seg := range fstate.Segments {
		in, err := fsys.Open(filepath.Join(dir, seg.Name))
		if err != nil {
			out.Close()
			return err
		}
		n, err := io.Copy(out, in)
		in.Close()
		if err != nil {
			out.Close()
			return err
		}
		if n != seg.Len {
			out.Close()
			return fmt.Errorf("%w: segment %s is %d bytes, SEGMENTS says %d",
				ErrBadMeta, seg.Name, n, seg.Len)
		}
	}
	return out.Close()
}
