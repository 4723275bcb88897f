package cacheline

import (
	"testing"
	"unsafe"
)

// TestMakeOwnsItsLines checks that Make's slices start on a line, end
// their capacity on one, and keep the requested length and zero values.
func TestMakeOwnsItsLines(t *testing.T) {
	for n := 0; n <= 40; n++ {
		for rep := 0; rep < 4; rep++ {
			s := Make[uint64](n)
			if len(s) != n {
				t.Fatalf("n=%d: len %d", n, len(s))
			}
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
			if lo%Size != 0 {
				t.Fatalf("n=%d: starts at %#x, not on a %d-byte line", n, lo, Size)
			}
			if end := lo + uintptr(cap(s))*8; end%Size != 0 || cap(s) < n {
				t.Fatalf("n=%d: capacity %d ends at %#x, not on a line", n, cap(s), end)
			}
			for i, v := range s {
				if v != 0 {
					t.Fatalf("n=%d: [%d] = %d, want 0", n, i, v)
				}
			}
		}
	}
	if s := Make[int32](3); cap(s) != Size/4 {
		t.Fatalf("Make[int32](3) has capacity %d, want one line of %d", cap(s), Size/4)
	}
}

func TestMakeRejectsOddElements(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Make of a 24-byte element did not panic")
		}
	}()
	Make[[3]uint64](1)
}
