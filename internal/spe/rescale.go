package spe

import (
	"flowkv/internal/core"
	"flowkv/internal/faultfs"
	"flowkv/internal/statebackend"
	"flowkv/internal/window"
)

// Rescaling on restart. A committed generation carries an implicit
// key-range manifest: stage s was checkpointed by StagePars[s] workers,
// and worker w's checkpoint holds exactly the keys with
// routeKey(key, StagePars[s]) == w. When Resume runs the stage at a
// different parallelism, the committed state is split/merged along those
// key ranges before replay:
//
//   - Store state (AAR/AUR/RMW): each old worker's checkpoint is
//     restored into a scratch store, enumerated entry by entry
//     (core.ForEachState — non-destructive, so the committed checkpoint
//     stays intact for a crash during recovery), and every entry is
//     re-appended into the new worker's backend chosen by rehashing its
//     key. Appended values keep their order (a single old worker held
//     all values of a key, and they re-append in order); window
//     boundaries route wholesale with their key.
//   - Operator snapshots: the old workers' control states are decoded,
//     their per-key registries re-routed by the same hash, and fresh
//     snapshots encoded for the new workers (repartitionWindowSnaps /
//     repartitionJoinSnaps).
//
// Replay then proceeds from the committed source offset exactly as a
// same-parallelism resume: barriers land at the same source offsets and
// watermarks at the same tuples (the cadence is parallelism-independent),
// so the committed ledger stays byte-identical to an uninterrupted run
// at either parallelism.

// opSnapshotter is the snapshot/restore contract job checkpoints need
// from a stateful operator. WindowOperator and IntervalJoinOperator
// implement it.
type opSnapshotter interface {
	statefulOperator
	snapshotState() []byte
	restoreState([]byte) error
	// setBackend swaps the operator's state backend in place — the live
	// migration path rebuilds a parked worker's store and re-points the
	// operator at it without reconstructing the operator.
	setBackend(statebackend.Backend)
}

var (
	_ opSnapshotter = (*WindowOperator)(nil)
	_ opSnapshotter = (*IntervalJoinOperator)(nil)
)

// rescaleDirName is the scratch area used while re-routing committed
// worker checkpoints; cleared before and after use.
const rescaleDirName = ".rescale"

// repartitionWindowSnaps re-routes committed window-operator snapshots
// onto a new worker set: per-key registries (aligned key sets, sessions,
// custom windows, count cursors) move to the worker that now owns their
// key, watermarks carry over (equal across workers at a barrier), and
// the job-total counters land on worker 0 so job-level sums are
// unchanged.
func repartitionWindowSnaps(snaps [][]byte, newPar int) ([][]byte, error) {
	outs := make([]*WindowOperator, newPar)
	for i := range outs {
		outs[i] = &WindowOperator{
			wm:       -1 << 62,
			aligned:  make(map[window.Window]map[string]struct{}),
			sessions: make(map[string][]*session),
			armedAt:  make(map[string]int64),
			custom:   make(map[string]map[window.Window]int64),
			counts:   make(map[string]int64),
		}
	}
	var results, late, triggers int64
	wm := int64(-1 << 62)
	for _, snap := range snaps {
		tmp := &WindowOperator{}
		if err := tmp.restoreState(snap); err != nil {
			return nil, err
		}
		if tmp.wm > wm {
			wm = tmp.wm
		}
		results += tmp.resultsEmitted
		late += tmp.lateDropped
		triggers += tmp.triggersFired
		for w, keys := range tmp.aligned {
			for k := range keys {
				o := outs[routeKey([]byte(k), newPar)]
				set := o.aligned[w]
				if set == nil {
					set = make(map[string]struct{})
					o.aligned[w] = set
				}
				set[k] = struct{}{}
			}
		}
		for k, list := range tmp.sessions {
			outs[routeKey([]byte(k), newPar)].sessions[k] = list
		}
		for k, set := range tmp.custom {
			outs[routeKey([]byte(k), newPar)].custom[k] = set
		}
		for k, n := range tmp.counts {
			outs[routeKey([]byte(k), newPar)].counts[k] = n
		}
	}
	out := make([][]byte, newPar)
	for i, o := range outs {
		o.wm = wm
		if i == 0 {
			o.resultsEmitted, o.lateDropped, o.triggersFired = results, late, triggers
		}
		out[i] = o.snapshotState()
	}
	return out, nil
}

// repartitionJoinSnaps is repartitionWindowSnaps for interval-join
// operators: both sides' bucket registries re-route per key.
func repartitionJoinSnaps(snaps [][]byte, newPar int) ([][]byte, error) {
	outs := make([]*IntervalJoinOperator, newPar)
	for i := range outs {
		outs[i] = &IntervalJoinOperator{
			wm: -1 << 62,
			buckets: map[Side]map[window.Window]map[string]struct{}{
				Left:  make(map[window.Window]map[string]struct{}),
				Right: make(map[window.Window]map[string]struct{}),
			},
			expiry: map[Side]*windowHeap{Left: {}, Right: {}},
		}
	}
	var results, late int64
	wm := int64(-1 << 62)
	for _, snap := range snaps {
		tmp := &IntervalJoinOperator{}
		if err := tmp.restoreState(snap); err != nil {
			return nil, err
		}
		if tmp.wm > wm {
			wm = tmp.wm
		}
		results += tmp.results
		late += tmp.late
		for _, side := range []Side{Left, Right} {
			for w, keys := range tmp.buckets[side] {
				for k := range keys {
					o := outs[routeKey([]byte(k), newPar)]
					set := o.buckets[side][w]
					if set == nil {
						set = make(map[string]struct{})
						o.buckets[side][w] = set
					}
					set[k] = struct{}{}
				}
			}
		}
	}
	out := make([][]byte, newPar)
	for i, o := range outs {
		o.wm = wm
		if i == 0 {
			o.results, o.late = results, late
		}
		out[i] = o.snapshotState()
	}
	return out, nil
}

// repartitionOpSnaps re-routes one stage's committed operator snapshots
// onto a new worker set.
func repartitionOpSnaps(snaps [][]byte, newPar int, join bool) ([][]byte, error) {
	if join {
		return repartitionJoinSnaps(snaps, newPar)
	}
	return repartitionWindowSnaps(snaps, newPar)
}

// rerouteCheckpointState restores one committed worker checkpoint into a
// scratch store, re-appends every live unit of state into the new worker
// set's (empty) backends — route maps a backend key to its new worker —
// and returns the operator snapshot the checkpoint carried. The
// committed checkpoint directory is only read, never modified — a crash
// mid-rescale leaves it fully intact for the next Resume.
func rerouteCheckpointState(fsys faultfs.FS, cpDir, scratchDir string, backends []statebackend.Backend, route func(key []byte) int) ([]byte, error) {
	pat, inst, err := core.VerifyCheckpointDir(fsys, cpDir)
	if err != nil {
		return nil, err
	}
	if err := fsys.RemoveAll(scratchDir); err != nil {
		return nil, err
	}
	st, err := core.OpenPattern(pat, window.Custom, core.Options{
		Dir:       scratchDir,
		Instances: inst,
		FS:        fsys,
	})
	if err != nil {
		return nil, err
	}
	snap, rerr := st.RestoreWithMeta(cpDir)
	if rerr != nil {
		st.Destroy()
		return nil, rerr
	}
	ferr := st.ForEachState(func(e core.StateEntry) error {
		nb := backends[route(e.Key)]
		if e.HasAgg {
			return nb.PutAgg(e.Key, e.Window, e.Agg)
		}
		for _, v := range e.Values {
			if err := nb.Append(e.Key, v, e.Window, e.MaxTS); err != nil {
				return err
			}
		}
		return nil
	})
	derr := st.Destroy()
	if ferr != nil {
		return nil, ferr
	}
	if derr != nil {
		return nil, derr
	}
	return snap, nil
}

// WorkerForKey reports which worker of a par-way stage owns key — the
// hash partition that doubles as the checkpoint key-range manifest.
func WorkerForKey(key []byte, par int) int { return routeKey(key, par) }
