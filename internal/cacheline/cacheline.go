// Package cacheline keeps the per-worker mutable state of a plan on cache
// lines no other worker writes (DESIGN.md §5). Two workers that write
// different words of one 64-byte line make the line bounce between their
// cores on every write, and the writes of a kernel's inner loop run once
// per column.
//
// Structs follow one rule: a struct a worker writes is padded to a whole
// number of lines. Go's size classes from 64 bytes up that are multiples
// of 64 hold their objects at line-aligned offsets, so such a struct
// starts on a line and owns every line it touches. Slices get the same
// guarantee from Make.
package cacheline

import "unsafe"

// Size is the cache-line size the padding assumes, in bytes.
const Size = 64

// Make returns a zeroed slice of n elements whose backing array starts on
// a cache line and whose capacity runs to the end of its last line, so no
// other allocation shares a line with it. The element size must divide
// Size (every caller stores 8-byte words).
func Make[T any](n int) []T {
	var zero T
	size := int(unsafe.Sizeof(zero))
	if size == 0 || Size%size != 0 {
		panic("cacheline: element size does not divide the line size")
	}
	per := Size / size
	lines := (n + per - 1) / per
	buf := make([]T, (lines+1)*per)
	off := 0
	if mis := int(uintptr(unsafe.Pointer(unsafe.SliceData(buf))) % Size); mis != 0 {
		off = (Size - mis) / size
	}
	return buf[off : off+n : off+lines*per]
}
