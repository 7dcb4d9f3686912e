package core

import (
	"fmt"

	"flowkv/internal/window"
)

// StateEntry is one live unit of state surfaced by ForEachState: a key,
// its window, and either the appended values (AAR/AUR patterns) or the
// read-modify-write aggregate (RMW pattern).
type StateEntry struct {
	Key    []byte
	Window window.Window
	// Values holds appended state in append order (AAR/AUR).
	Values [][]byte
	// Agg holds the RMW aggregate; HasAgg distinguishes an aggregate
	// entry from appended-state entries.
	Agg    []byte
	HasAgg bool
	// MaxTS is the maximum event timestamp observed for the entry (AUR
	// Stat table; zero elsewhere). Re-appending with it re-seeds ETT
	// estimation in the receiving store.
	MaxTS int64
}

// ForEachState enumerates every live unit of state across all instances
// without consuming anything — the export side of job rescaling: a
// restored checkpoint is dumped entry by entry and re-routed into a new
// worker set by key hash. Entries are ordered within an instance
// ((key, window) for AUR/RMW, window-major for AAR); cross-instance
// order follows instance index.
func (s *Store) ForEachState(fn func(StateEntry) error) error {
	if err := s.guardRead(); err != nil {
		return err
	}
	switch s.pattern {
	case PatternAAR:
		for _, st := range s.aars {
			for _, w := range st.Windows() {
				kvs, err := st.PeekWindow(w)
				if err != nil {
					return fmt.Errorf("flowkv: dump window %v: %w", w, err)
				}
				for _, kv := range kvs {
					if err := fn(StateEntry{Key: kv.Key, Window: w, Values: kv.Values}); err != nil {
						return err
					}
				}
			}
		}
	case PatternAUR:
		for _, st := range s.aurs {
			err := st.ForEachLive(func(key []byte, w window.Window, values [][]byte, maxTS int64) error {
				return fn(StateEntry{Key: key, Window: w, Values: values, MaxTS: maxTS})
			})
			if err != nil {
				return err
			}
		}
	case PatternRMW:
		for _, st := range s.rmws {
			err := st.ForEachLive(func(key []byte, w window.Window, agg []byte) error {
				return fn(StateEntry{Key: key, Window: w, Agg: agg, HasAgg: true})
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}
