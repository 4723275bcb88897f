// Package store is the content-addressed matrix store behind the
// sketch-by-reference protocol: clients PUT a CSC matrix once, keyed by its
// sparse.Fingerprint, and every later sketch request ships only the 32-byte
// fingerprint instead of the O(nnz) payload — the network-side analogue of
// the paper's "never materialise S" argument, applied to A itself.
//
// The store is a refcounted, memory-bounded LRU (an internal/cache.LRU
// sized by MemoryBytes):
//
//   - Put validates and deep-copies the matrix in, so no caller retains a
//     path to mutate a stored matrix; entries are immutable for their whole
//     lifetime (a PATCH creates a new entry under the new fingerprint — it
//     never edits in place, which is what lets plans alias stored matrices
//     without cloning).
//   - Get hands out a Handle that pins the entry: eviction walks the LRU
//     tail but skips any entry with live handles, so a matrix serving a
//     cached plan or an in-flight execute is never reclaimed under it. The
//     byte budget may therefore overshoot while everything resident is
//     pinned; it is re-trimmed as handles are released.
//   - A Put never evicts the matrix it inserts, even when everything else
//     resident is pinned: the client's 404-then-upload fallback would
//     otherwise loop.
package store

import (
	"errors"
	"fmt"
	"sync/atomic"

	"sketchsp/internal/cache"
	"sketchsp/internal/obs"
	"sketchsp/internal/sparse"
)

// ErrNotFound is returned when no matrix with the requested fingerprint is
// resident — either it was never uploaded or the LRU reclaimed it. The wire
// layer maps it to StatusNotFound (HTTP 404); it is not retryable, but it is
// *curable*: the client's fallback re-uploads and retries once.
var ErrNotFound = errors.New("store: matrix not found")

// DefaultMaxBytes is the byte budget when Config.MaxBytes is 0: 256 MiB,
// roomy enough for hundreds of bench-sized matrices while bounding a
// misbehaving uploader.
const DefaultMaxBytes = 256 << 20

// Config sizes the store.
type Config struct {
	// MaxBytes bounds the summed MemoryBytes of resident matrices; the LRU
	// evicts unpinned entries beyond it. 0 selects DefaultMaxBytes;
	// negative means unbounded.
	MaxBytes int64
	// Metrics is the registry of the sketchsp_store_* families. nil
	// registers them on a private registry.
	Metrics *obs.Registry
}

// Info describes a stored matrix: its identity, its footprint, and whether
// the operation that returned it inserted the entry (false: it was already
// resident, byte-identical by fingerprint).
type Info struct {
	Fp      sparse.Fingerprint
	Bytes   int64
	Created bool
}

// Store is the content-addressed matrix store. Safe for concurrent use.
type Store struct {
	mats *cache.LRU[sparse.Fingerprint, *sparse.CSC] // immutable once inserted

	puts    *obs.Counter
	dupPuts *obs.Counter
	hits    *obs.Counter
	misses  *obs.Counter
}

// New returns a ready Store.
func New(cfg Config) *Store {
	if cfg.MaxBytes == 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	r := cfg.Metrics
	if r == nil {
		r = obs.NewRegistry()
	}
	return &Store{
		mats: cache.New[sparse.Fingerprint](cfg.MaxBytes, (*sparse.CSC).MemoryBytes, r, cache.Names{
			Evictions:     "sketchsp_store_evictions_total",
			EvictionsHelp: "Matrices reclaimed by the LRU byte budget.",
			Bytes:         "sketchsp_store_bytes",
			BytesHelp:     "Summed MemoryBytes of resident matrices.",
			Entries:       "sketchsp_store_matrices",
			EntriesHelp:   "Matrices currently resident.",
		}),
		puts: r.Counter("sketchsp_store_puts_total",
			"Matrices inserted into the content-addressed store."),
		dupPuts: r.Counter("sketchsp_store_duplicate_puts_total",
			"Puts that found their fingerprint already resident."),
		hits: r.Counter("sketchsp_store_hits_total",
			"Fingerprint lookups that found a resident matrix."),
		misses: r.Counter("sketchsp_store_misses_total",
			"Fingerprint lookups that found nothing (never uploaded or evicted)."),
	}
}

// Put validates a, deep-copies it into the store and returns its Info. A
// matrix already resident under the same fingerprint is not copied again
// (Created=false) — content addressing makes re-uploads idempotent.
func (s *Store) Put(a *sparse.CSC) (Info, error) {
	if a == nil {
		return Info{}, fmt.Errorf("store: nil matrix")
	}
	if err := a.Validate(); err != nil {
		return Info{}, err
	}
	return s.insert(a, true)
}

// PutOwned inserts a without copying: the caller hands over ownership and
// must never touch a's arrays again. This is the PATCH path — the merged
// A + ΔA is freshly allocated by sparse.Add, so cloning it again would only
// double the peak footprint. The matrix must already be valid.
func (s *Store) PutOwned(a *sparse.CSC) (Info, error) {
	if a == nil {
		return Info{}, fmt.Errorf("store: nil matrix")
	}
	return s.insert(a, false)
}

func (s *Store) insert(a *sparse.CSC, clone bool) (Info, error) {
	fp := a.Fingerprint()
	cur, ok := s.mats.Get(fp)
	if !ok {
		if clone {
			// Copy outside the cache's lock, then insert unless a racing
			// identical Put won meanwhile (same bytes by fingerprint).
			a = a.Clone()
		}
		var added bool
		if cur, added, _ = s.mats.Add(fp, a); added {
			s.puts.Inc()
			return Info{Fp: fp, Bytes: cur.MemoryBytes(), Created: true}, nil
		}
	}
	s.dupPuts.Inc()
	return Info{Fp: fp, Bytes: cur.MemoryBytes()}, nil
}

// Get resolves fp to a pinned Handle, or (nil, ErrNotFound). The caller
// must Release the handle; until then the matrix cannot be evicted.
func (s *Store) Get(fp sparse.Fingerprint) (*Handle, error) {
	a, pin, ok := s.mats.Pin(fp)
	if !ok {
		s.misses.Inc()
		return nil, ErrNotFound
	}
	s.hits.Inc()
	return &Handle{fp: fp, a: a, pin: pin}, nil
}

// Contains reports whether fp is resident without touching LRU order or
// refcounts (stats endpoints, tests).
func (s *Store) Contains(fp sparse.Fingerprint) bool { return s.mats.Contains(fp) }

// Stats is a point-in-time snapshot of the store occupancy.
type Stats struct {
	Matrices int   `json:"matrices"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
}

// Stats snapshots the current occupancy.
func (s *Store) Stats() Stats {
	return Stats{Matrices: s.mats.Len(), Bytes: s.mats.Bytes(), MaxBytes: s.mats.Max()}
}

// Handle pins one stored matrix. The matrix it exposes is immutable and
// shared — callers must treat it as read-only (plans do: kernels never
// write to A).
type Handle struct {
	fp       sparse.Fingerprint
	a        *sparse.CSC
	pin      cache.Pin[sparse.Fingerprint, *sparse.CSC]
	released atomic.Bool
}

// Matrix returns the pinned matrix. The returned CSC (and its arrays) stays
// valid even after Release — Go's GC keeps it alive for as long as anything
// references it — but only while the handle is unreleased is it guaranteed
// still resident in the store.
func (h *Handle) Matrix() *sparse.CSC { return h.a }

// Fingerprint returns the pinned matrix's identity.
func (h *Handle) Fingerprint() sparse.Fingerprint { return h.fp }

// Release unpins the matrix. Idempotent: double releases are absorbed, so a
// refcount can never be driven negative by a confused caller. Dropping the
// last pin re-runs the byte-budget trim, since this entry may be the one
// holding the store over budget.
func (h *Handle) Release() {
	if h.released.CompareAndSwap(false, true) {
		h.pin.Unpin()
	}
}
