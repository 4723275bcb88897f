package shard

import (
	"fmt"

	"sketchsp/internal/dense"
)

// Accumulator assembles the full sketch Â from per-shard partials. The
// math is the linearity of the sketch: Â = S·A = Σᵢ S·A[:, Jᵢ) placed at
// column offset Jᵢ, and because the shards tile the columns disjointly
// each output column is written by exactly one partial. Placement is a
// per-column copy rather than a += — for disjoint coverage the two are
// the same sum, but the copy also preserves the bit pattern of -0.0
// (0 + -0 rounds to +0 in IEEE-754), which the bit-identity guarantee
// needs.
//
// Coverage is tracked per column: an overlapping Add is rejected (it
// would double-count), and Complete refuses to hand back a sketch with
// uncovered columns. Not safe for concurrent use — the coordinator's
// fan-out goroutines deliver results over a channel and one goroutine
// merges.
type Accumulator struct {
	dst       *dense.Matrix
	covered   []bool
	remaining int
}

// NewAccumulator prepares to merge into dst, whose columns the partials
// overwrite; its prior values are never read.
func NewAccumulator(dst *dense.Matrix) *Accumulator {
	return &Accumulator{
		dst:       dst,
		covered:   make([]bool, dst.Cols),
		remaining: dst.Cols,
	}
}

// Add places partial — the d×(j1−j0) sketch of columns [j0, j1) — into
// the destination. The shard width is taken from partial.Cols.
func (ac *Accumulator) Add(j0 int, partial *dense.Matrix) error {
	if partial == nil {
		return fmt.Errorf("shard: nil partial for columns at %d", j0)
	}
	if partial.Rows != ac.dst.Rows {
		return fmt.Errorf("shard: partial has %d rows, sketch is %d×%d",
			partial.Rows, ac.dst.Rows, ac.dst.Cols)
	}
	if j0 < 0 || j0+partial.Cols > ac.dst.Cols {
		return fmt.Errorf("shard: partial [%d:%d) outside sketch columns [0:%d)",
			j0, j0+partial.Cols, ac.dst.Cols)
	}
	for j := 0; j < partial.Cols; j++ {
		if ac.covered[j0+j] {
			return fmt.Errorf("shard: column %d delivered twice", j0+j)
		}
	}
	for j := 0; j < partial.Cols; j++ {
		copy(ac.dst.Col(j0+j), partial.Col(j))
		ac.covered[j0+j] = true
	}
	ac.remaining -= partial.Cols
	return nil
}

// Complete reports whether every column of the destination is covered.
func (ac *Accumulator) Complete() error {
	if ac.remaining != 0 {
		return fmt.Errorf("shard: %d of %d sketch columns never delivered",
			ac.remaining, ac.dst.Cols)
	}
	return nil
}
