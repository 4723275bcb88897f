package core

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

// byteRange is a half-open address range [lo, hi).
type byteRange struct{ lo, hi uintptr }

// footprint collects the address ranges of every object reachable from v
// through pointers, slices and interfaces: for a workspace, its generator,
// sampler, raw-word scratch, source and column scratch. Slices for which
// skip reports true (views into the shared output) are left out. check is
// called on each struct reached through a pointer.
type footprint struct {
	seen  map[uintptr]bool
	spans []byteRange
	skip  func(lo uintptr) bool
	check func(v reflect.Value)
}

func (f *footprint) visit(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || f.seen[v.Pointer()] {
			return
		}
		f.seen[v.Pointer()] = true
		e := v.Elem()
		f.spans = append(f.spans, byteRange{v.Pointer(), v.Pointer() + e.Type().Size()})
		if e.Kind() == reflect.Struct {
			f.check(e)
		}
		f.visit(e)
	case reflect.Slice:
		if v.IsNil() || v.Cap() == 0 || f.skip(v.Pointer()) {
			return
		}
		f.spans = append(f.spans, byteRange{v.Pointer(), v.Pointer() + uintptr(v.Cap())*v.Type().Elem().Size()})
		for i := 0; i < v.Len(); i++ {
			f.visit(v.Index(i))
		}
	case reflect.Interface:
		if !v.IsNil() {
			f.visit(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f.visit(v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			f.visit(v.Index(i))
		}
	}
}

// TestPlanWorkersOwnCacheLines enforces DESIGN.md §5's rule that
// worker-private state owns its cache lines: in a 4-worker plan, no
// 64-byte line holds bytes of two workers' generators, samplers and their
// scratch, column generators (kernels.Gen) or workspaces. A line written
// by two workers bounces between their cores on every column. It also
// checks that BatchXoshiro's 32-byte lane rows, which the assembly loads
// whole, sit at 32-byte aligned addresses.
func TestPlanWorkersOwnCacheLines(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the padding is sized for 64-bit platforms")
	}
	const line = 64
	a := sparse.RandomUniform(200, 40, 0.1, 5)
	kinds := []rng.SourceKind{rng.SourceBatchXoshiro, rng.SourceScalarXoshiro, rng.SourcePhilox}
	for _, kind := range kinds {
		for _, dist := range []rng.Distribution{rng.Uniform11, rng.Rademacher, rng.SJLT} {
			for _, alg := range []Algorithm{Alg3, Alg4} {
				t.Run(fmt.Sprintf("%v/%v/%v", kind, dist, alg), func(t *testing.T) {
					p := mustPlan(t, a, 30, Options{Algorithm: alg, Dist: dist, Source: kind, Seed: 3,
						BlockD: 10, BlockN: 5, Workers: 4})
					if p.workers != 4 {
						t.Fatalf("plan has %d workers, want 4", p.workers)
					}
					ahat := dense.NewMatrix(30, a.N)
					mustExecute(t, p, ahat) // the samplers size their scratch on first use
					out := uintptr(unsafe.Pointer(unsafe.SliceData(ahat.Data)))
					outEnd := out + uintptr(len(ahat.Data))*8
					owner := map[uintptr]int{}
					for w, ws := range p.ws {
						f := &footprint{
							seen: map[uintptr]bool{},
							skip: func(lo uintptr) bool { return lo >= out && lo < outEnd },
							check: func(v reflect.Value) {
								if v.Type() != reflect.TypeOf(rng.BatchXoshiro{}) {
									return
								}
								fv := v.FieldByName("s")
								if !fv.IsValid() {
									t.Fatal("BatchXoshiro has no lane-state field s")
								}
								if fv.UnsafeAddr()%32 != 0 {
									t.Errorf("worker %d: BatchXoshiro.s at %#x, not 32-byte aligned", w, fv.UnsafeAddr())
								}
							},
						}
						f.visit(reflect.ValueOf(ws))
						for _, s := range f.spans {
							for l := s.lo / line; l <= (s.hi-1)/line; l++ {
								if o, ok := owner[l]; ok && o != w {
									t.Fatalf("cache line %#x holds state of workers %d and %d", l*line, o, w)
								}
								owner[l] = w
							}
						}
					}
				})
			}
		}
	}
}
