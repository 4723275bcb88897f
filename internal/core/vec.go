package core

import (
	"fmt"

	"sketchsp/internal/dense"
	"sketchsp/internal/sparse"
)

// SketchVec returns S·v (length d) for a single vector v of length m — a
// Johnson–Lindenstrauss style transform of v without materialising S. It
// is the one-column sketch of v's nonzeros through the same plan path as
// Sketch, so it equals MaterializeS(len(v))·v and the first column of
// Sketch on v as a one-column matrix, for every distribution.
func (sk *Sketcher) SketchVec(v []float64) []float64 {
	out := make([]float64, sk.d)
	sk.SketchVecInto(out, v)
	return out
}

// SketchVecInto is SketchVec writing into a caller-provided buffer of
// length d.
func (sk *Sketcher) SketchVecInto(dst, v []float64) {
	if len(dst) != sk.d {
		panic(fmt.Sprintf("core: SketchVecInto dst len %d, want d=%d", len(dst), sk.d))
	}
	coo := sparse.NewCOO(len(v), 1, 0)
	for j, x := range v {
		if x != 0 {
			coo.Append(j, 0, x)
		}
	}
	sk.SketchInto(&dense.Matrix{Rows: sk.d, Cols: 1, Stride: sk.d, Data: dst}, coo.ToCSC())
}
