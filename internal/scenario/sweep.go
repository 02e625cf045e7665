package scenario

import "fmt"

// Sweep runs a grid of scenarios with optional store-backed resume: each
// cell is looked up by content hash first, executed only on a miss, and
// persisted as soon as it finishes. Killing a sweep halfway therefore
// loses at most the in-flight cell; the rerun recomputes only what is
// missing (assert with ProbeSimTicks — a fully warm sweep simulates zero
// ticks). Cells execute in spec order, one at a time. A cell's engine
// takes one worker per four lanes a pass steps (sim's minLanesPerWorker),
// so a Table III cell or a 4-node rack runs on one goroutine and a sweep
// of them uses one core; running cells concurrently is left to a change
// of its own.

// SweepCell is one grid point's result.
type SweepCell struct {
	// Spec is the cell's scenario.
	Spec Spec
	// Key is the cell's content address (also its store filename).
	Key string
	// Outcome is the cell's result, freshly computed or cached.
	Outcome *Outcome
	// Cached reports whether the outcome was served from the store.
	Cached bool
}

// SweepResult bundles the cells with the cache accounting.
type SweepResult struct {
	Cells  []SweepCell
	Hits   int // cells served from the store
	Misses int // cells actually executed
}

// Sweep executes the specs in order. store may be nil (no caching). On a
// cell failure the cells completed so far are returned with the error, so
// a caller can inspect — and, with a store, has already persisted — the
// finished prefix.
func Sweep(specs []Spec, store *Store) (*SweepResult, error) {
	res := &SweepResult{Cells: make([]SweepCell, 0, len(specs))}
	for i, spec := range specs {
		// Validate before the lookup: a stored cell of a spec the
		// vocabulary now refuses is never served.
		if err := spec.Validate(); err != nil {
			return res, fmt.Errorf("scenario: sweep cell %d: %w", i, err)
		}
		key, err := Key(spec)
		if err != nil {
			return res, fmt.Errorf("scenario: sweep cell %d: %w", i, err)
		}
		if store != nil {
			if out, ok, err := store.GetKey(key); err != nil {
				return res, fmt.Errorf("scenario: sweep cell %d (%s): %w", i, key, err)
			} else if ok {
				res.Cells = append(res.Cells, SweepCell{Spec: spec, Key: key, Outcome: out, Cached: true})
				res.Hits++
				continue
			}
		}
		out, err := Run(spec)
		if err != nil {
			return res, fmt.Errorf("scenario: sweep cell %d (%s): %w", i, key, err)
		}
		if store != nil {
			if err := store.Put(spec, out); err != nil {
				return res, fmt.Errorf("scenario: sweep cell %d (%s): %w", i, key, err)
			}
		}
		res.Cells = append(res.Cells, SweepCell{Spec: spec, Key: key, Outcome: out})
		res.Misses++
	}
	return res, nil
}
