package pool

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestFreeListReusesLIFOAndBounds pins the two properties callers rely on:
// the last object freed is the next one handed out, and no more than
// MaxIdle objects are kept idle.
func TestFreeListReusesLIFOAndBounds(t *testing.T) {
	made := 0
	l := FreeList[*int]{New: func() *int { made++; return new(int) }}
	a, b := l.Get(), l.Get()
	if made != 2 {
		t.Fatalf("made %d objects for two Gets on an empty list, want 2", made)
	}
	l.Put(a)
	l.Put(b)
	if got := l.Get(); got != b {
		t.Error("Get did not return the object freed last")
	}
	if got := l.Get(); got != a {
		t.Error("second Get did not return the object freed first")
	}
	for i := 0; i < 2*MaxIdle; i++ {
		l.Put(new(int))
	}
	made = 0
	for i := 0; i < 2*MaxIdle; i++ {
		l.Get()
	}
	if made != MaxIdle {
		t.Errorf("made %d objects after freeing %d, want %d (MaxIdle kept)", made, 2*MaxIdle, MaxIdle)
	}
}

// TestFreeListConcurrent hands objects back and forth from many
// goroutines; under -race it checks the list's own synchronisation and
// that no object is handed to two holders at once.
func TestFreeListConcurrent(t *testing.T) {
	type obj struct{ held atomic.Bool }
	l := FreeList[*obj]{New: func() *obj { return new(obj) }}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				o := l.Get()
				if o.held.Swap(true) {
					t.Error("object handed to two holders at once")
					return
				}
				o.held.Store(false)
				l.Put(o)
			}
		}()
	}
	wg.Wait()
}
