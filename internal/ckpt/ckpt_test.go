package ckpt

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"flowkv/internal/binio"
)

// validMeta is a SEGMENTS file as the writers produce it: two logical
// files, one of them extended by a delta segment, one empty.
func validMeta() *Meta {
	return &Meta{CutID: 42, Files: []FileState{
		{Logical: "data.log", Epoch: 7, Segments: []Segment{
			{Name: SegmentName("data.log", 0), Len: 4096, CRC: 0xdeadbeef},
			{Name: SegmentName("data.log", 4096), Len: 512, CRC: 0xfeed},
		}},
		{Logical: "stat.dlt", Epoch: 9},
	}}
}

// encodeRaw frames a SEGMENTS file with one logical file whose segment
// names and lengths are given verbatim — bypassing any writer invariant.
func encodeRaw(logical string, segs []Segment) []byte {
	var buf, payload []byte
	payload = binio.PutString(payload[:0], metaMagic)
	payload = binio.PutUvarint(payload, 1)
	buf = binio.AppendRecord(buf, payload)
	payload = binio.PutString(payload[:0], logical)
	payload = binio.PutUvarint(payload, 1)
	payload = binio.PutUvarint(payload, uint64(len(segs)))
	for _, s := range segs {
		payload = binio.PutString(payload, s.Name)
		payload = binio.PutUvarint(payload, uint64(s.Len))
		payload = binio.PutUint32(payload, s.CRC)
	}
	return binio.AppendRecord(buf, payload)
}

func TestDecodeMetaRoundTrip(t *testing.T) {
	m := validMeta()
	got, err := DecodeMeta(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Encode(), m.Encode()) {
		t.Fatalf("round trip changed meta: %+v -> %+v", m, got)
	}
}

// TestDecodeMetaRejectsUnsafeNames: every name in SEGMENTS reaches
// filepath.Join in Materialize or LinkSegments, so the decoder admits
// only the names the writers produce.
func TestDecodeMetaRejectsUnsafeNames(t *testing.T) {
	cases := map[string][]byte{
		"traversal segment": encodeRaw("data.log", []Segment{{Name: "../../etc/passwd", Len: 1}}),
		"traversal logical": encodeRaw("../data.log", []Segment{{Name: SegmentName("../data.log", 0), Len: 1}}),
		"nested logical":    encodeRaw("a/data.log", []Segment{{Name: SegmentName("a/data.log", 0), Len: 1}}),
		"dot logical":       encodeRaw("..", nil),
		"empty logical":     encodeRaw("", nil),
		"zero length":       encodeRaw("data.log", []Segment{{Name: SegmentName("data.log", 0), Len: 0}}),
		"wrong offset": encodeRaw("data.log", []Segment{
			{Name: SegmentName("data.log", 0), Len: 10},
			{Name: SegmentName("data.log", 11), Len: 10},
		}),
		"foreign logical": encodeRaw("data.log", []Segment{{Name: SegmentName("index.log", 0), Len: 1}}),
	}
	for name, b := range cases {
		if _, err := DecodeMeta(b); !errors.Is(err, ErrBadMeta) {
			t.Errorf("%s: err = %v, want ErrBadMeta", name, err)
		}
	}
}

// FuzzDecodeMeta feeds arbitrary bytes to the SEGMENTS decoder. It must
// never panic; anything it accepts must survive an Encode/DecodeMeta
// round trip unchanged, and every accepted name must be a plain file
// name, so a crafted SEGMENTS file can never steer a restore or a delta
// link outside the checkpoint directory.
func FuzzDecodeMeta(f *testing.F) {
	valid := validMeta().Encode()
	f.Add([]byte{})
	f.Add((&Meta{}).Encode())
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x20
	f.Add(flipped)
	f.Add(encodeRaw("data.log", []Segment{{Name: "../../etc/passwd", Len: 1}}))
	f.Add(encodeRaw("../data.log", []Segment{{Name: SegmentName("../data.log", 0), Len: 1}}))
	f.Add(encodeRaw("data.log", []Segment{{Name: SegmentName("data.log", 0), Len: 0}}))

	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeMeta(b)
		if err != nil {
			return
		}
		m2, err := DecodeMeta(m.Encode())
		if err != nil {
			t.Fatalf("re-encoded SEGMENTS rejected: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip changed SEGMENTS: %+v -> %+v", m, m2)
		}
		for _, fs := range m.Files {
			for _, name := range append([]string{fs.Logical}, segNames(fs)...) {
				if name != filepath.Base(name) || name == ".." || strings.ContainsAny(name, `/\`) {
					t.Fatalf("accepted unsafe name %q", name)
				}
			}
		}
	})
}

func segNames(fs FileState) []string {
	out := make([]string, len(fs.Segments))
	for i, s := range fs.Segments {
		out[i] = s.Name
	}
	return out
}
