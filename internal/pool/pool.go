// Package pool holds the free list the serving layers (server, client,
// shard) reuse their per-request buffers from.
//
// sync.Pool is the wrong fit for buffers of hundreds of kilobytes: it
// parks an object in a per-CPU slot that a goroutine on another CPU cannot
// take, so a busy process keeps idle buffers beside the ones it allocates
// afresh, and every idle buffer is live heap the garbage collector's goal
// doubles. A FreeList is one LIFO stack behind a mutex: the next Get takes
// whichever buffer was freed last, on any CPU, so the buffers that exist
// are about as many as the requests in flight. It keeps at most MaxIdle of
// them idle; the callers cap what one buffer may hold
// (wire.MaxPooledBytes), which bounds the memory a FreeList pins.
package pool

import "sync"

// MaxIdle bounds the idle objects one FreeList keeps: a few per CPU of a
// small serving host, which covers its requests in flight; a burst beyond
// it allocates as it would without a pool.
const MaxIdle = 8

// FreeList is a bounded LIFO free list, safe for concurrent use. New makes
// an object when none is idle.
type FreeList[T any] struct {
	New  func() T
	mu   sync.Mutex
	idle []T
}

// Get returns the most recently freed idle object, or a new one.
func (l *FreeList[T]) Get() T {
	l.mu.Lock()
	if n := len(l.idle); n > 0 {
		x := l.idle[n-1]
		var zero T
		l.idle[n-1] = zero
		l.idle = l.idle[:n-1]
		l.mu.Unlock()
		return x
	}
	l.mu.Unlock()
	return l.New()
}

// Put makes x idle, or drops it when MaxIdle objects already are.
func (l *FreeList[T]) Put(x T) {
	l.mu.Lock()
	if len(l.idle) < MaxIdle {
		l.idle = append(l.idle, x)
	}
	l.mu.Unlock()
}
