package spe

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"

	"flowkv/internal/binio"
	"flowkv/internal/window"
)

// Operator state snapshots. A job checkpoint must capture not just the
// backend's durable state but the window operator's in-memory control
// state — which windows are registered, where the watermark stands, which
// sessions are live — or a restored pipeline would re-create windows for
// replayed tuples without knowing which triggers are still owed. The
// snapshot is stored as the backend checkpoint's application metadata
// (core's APPMETA file), so it commits atomically with the store cut it
// describes.
//
// Only reconstructible scheduling structures are omitted: the aligned
// window heap is rebuilt from the registered window set, session timers
// re-arm from the live sessions, and custom-window timers re-arm at each
// window's end. Everything the omitted structures encode is derived from
// serialized state, so the restored operator fires the same triggers in
// the same order.

// opSnapMagic versions the operator snapshot encoding.
const opSnapMagic = "flowkv-opsnap1\n"

// snapshotState serializes the operator's control state. Maps are
// emitted in sorted order so identical states produce identical bytes.
func (o *WindowOperator) snapshotState() []byte {
	b := []byte(opSnapMagic)
	b = binio.PutVarint(b, o.wm)
	b = binio.PutVarint(b, o.resultsEmitted)
	b = binio.PutVarint(b, o.lateDropped)
	b = binio.PutVarint(b, o.triggersFired)

	// Aligned windows: window -> key set.
	wins := make([]window.Window, 0, len(o.aligned))
	for w := range o.aligned {
		wins = append(wins, w)
	}
	sort.Slice(wins, func(i, j int) bool { return wins[i].Before(wins[j]) })
	b = binio.PutUvarint(b, uint64(len(wins)))
	for _, w := range wins {
		b = w.AppendTo(b)
		keys := sortedKeys(o.aligned[w])
		b = binio.PutUvarint(b, uint64(len(keys)))
		for _, k := range keys {
			b = binio.PutString(b, k)
		}
	}

	// Sessions: key -> live sessions. The initials order is preserved:
	// initials[0] identifies where the incremental accumulator lives.
	skeys := make([]string, 0, len(o.sessions))
	for k := range o.sessions {
		skeys = append(skeys, k)
	}
	sort.Strings(skeys)
	b = binio.PutUvarint(b, uint64(len(skeys)))
	for _, k := range skeys {
		list := o.sessions[k]
		b = binio.PutString(b, k)
		b = binio.PutUvarint(b, uint64(len(list)))
		for _, s := range list {
			b = s.cur.AppendTo(b)
			b = binio.PutUvarint(b, uint64(len(s.initials)))
			for _, iw := range s.initials {
				b = iw.AppendTo(b)
			}
		}
	}

	// Custom windows: key -> window -> max tuple timestamp.
	ckeys := make([]string, 0, len(o.custom))
	for k := range o.custom {
		ckeys = append(ckeys, k)
	}
	sort.Strings(ckeys)
	b = binio.PutUvarint(b, uint64(len(ckeys)))
	for _, k := range ckeys {
		set := o.custom[k]
		b = binio.PutString(b, k)
		cwins := make([]window.Window, 0, len(set))
		for w := range set {
			cwins = append(cwins, w)
		}
		sort.Slice(cwins, func(i, j int) bool { return cwins[i].Before(cwins[j]) })
		b = binio.PutUvarint(b, uint64(len(cwins)))
		for _, w := range cwins {
			b = w.AppendTo(b)
			b = binio.PutVarint(b, set[w])
		}
	}

	// Count windows: key -> element counter.
	nkeys := make([]string, 0, len(o.counts))
	for k := range o.counts {
		nkeys = append(nkeys, k)
	}
	sort.Strings(nkeys)
	b = binio.PutUvarint(b, uint64(len(nkeys)))
	for _, k := range nkeys {
		b = binio.PutString(b, k)
		b = binio.PutVarint(b, o.counts[k])
	}
	return b
}

func sortedKeys(set map[string]struct{}) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// restoreState rebuilds the operator's control state from a snapshot.
// The operator must be freshly constructed; scheduling structures
// (aligned heap, session and custom-window timers) are re-derived from
// the decoded state.
func (o *WindowOperator) restoreState(b []byte) error {
	d := snapDecoder{b: b}
	if err := d.magic(opSnapMagic); err != nil {
		return err
	}
	o.wm = d.varint()
	o.resultsEmitted = d.varint()
	o.lateDropped = d.varint()
	o.triggersFired = d.varint()

	o.aligned = make(map[window.Window]map[string]struct{})
	o.alignedHeap = o.alignedHeap[:0]
	for n := d.uvarint(); n > 0; n-- {
		w := d.window()
		set := make(map[string]struct{})
		for kn := d.uvarint(); kn > 0; kn-- {
			set[d.str()] = struct{}{}
		}
		if d.err != nil {
			break
		}
		o.aligned[w] = set
		o.alignedHeap = append(o.alignedHeap, w)
	}
	heap.Init(&o.alignedHeap)

	o.sessions = make(map[string][]*session)
	o.armedAt = make(map[string]int64)
	o.timers = o.timers[:0]
	for n := d.uvarint(); n > 0; n-- {
		key := d.str()
		var list []*session
		for sn := d.uvarint(); sn > 0; sn-- {
			s := &session{cur: d.window()}
			for in := d.uvarint(); in > 0; in-- {
				s.initials = append(s.initials, d.window())
			}
			list = append(list, s)
		}
		if d.err != nil {
			break
		}
		o.sessions[key] = list
	}

	o.custom = make(map[string]map[window.Window]int64)
	for n := d.uvarint(); n > 0; n-- {
		key := d.str()
		set := make(map[window.Window]int64)
		var cwins []window.Window
		for wn := d.uvarint(); wn > 0; wn-- {
			w := d.window()
			set[w] = d.varint()
			cwins = append(cwins, w)
		}
		if d.err != nil {
			break
		}
		o.custom[key] = set
		for _, w := range cwins {
			heap.Push(&o.timers, timerEntry{at: w.End, key: key, w: w})
		}
	}

	o.counts = make(map[string]int64)
	for n := d.uvarint(); n > 0; n-- {
		key := d.str()
		o.counts[key] = d.varint()
	}
	if d.err != nil {
		return fmt.Errorf("spe: corrupt operator snapshot: %w", d.err)
	}
	// Re-arm one session timer per key, exactly as live ingestion would.
	for key := range o.sessions {
		o.armSession(key)
	}
	return nil
}

// snapDecoder is a cursor over snapshot bytes that latches the first
// decode error, keeping the happy path free of per-field error plumbing.
type snapDecoder struct {
	b   []byte
	err error
}

func (d *snapDecoder) magic(m string) error {
	if len(d.b) < len(m) || string(d.b[:len(m)]) != m {
		return fmt.Errorf("%w: want %q", ErrBadMagic, strings.TrimSuffix(m, "\n"))
	}
	d.b = d.b[len(m):]
	return nil
}

func (d *snapDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n, err := binio.Varint(d.b)
	if err != nil {
		d.err = err
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *snapDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n, err := binio.Uvarint(d.b)
	if err != nil {
		d.err = err
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *snapDecoder) bytes() []byte {
	if d.err != nil {
		return nil
	}
	p, n, err := binio.Bytes(d.b)
	if err != nil {
		d.err = err
		return nil
	}
	d.b = d.b[n:]
	return append([]byte(nil), p...)
}

func (d *snapDecoder) str() string {
	if d.err != nil {
		return ""
	}
	s, n, err := binio.String(d.b)
	if err != nil {
		d.err = err
		return ""
	}
	d.b = d.b[n:]
	return s
}

func (d *snapDecoder) window() window.Window {
	if d.err != nil {
		return window.Window{}
	}
	w, n, err := window.Decode(d.b)
	if err != nil {
		d.err = err
		return window.Window{}
	}
	d.b = d.b[n:]
	return w
}
