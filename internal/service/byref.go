package service

import (
	"cmp"
	"context"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/obs"
	"sketchsp/internal/sparse"
	"sketchsp/internal/store"
)

// This file is the content-addressed serving surface (DESIGN.md §12):
//
//	PutMatrix      — upload A once, keyed by its fingerprint.
//	SketchRefInto  — sketch by fingerprint: the request carries 32 bytes
//	                 instead of O(nnz), and the answer is bit-identical to
//	                 the inline path for the same (A, d, opts).
//	PatchMatrix    — apply a sparse ΔA: the store gains A+ΔA under its new
//	                 fingerprint, and every cached sketch of A is advanced
//	                 to Â + S·ΔA at cost O(nnz(ΔA)) — no full resketch.
//
// The sketch cache under SketchRefInto is what PatchMatrix advances: it
// maps (fingerprint, d, opts) to a finished Â, so a repeat by-ref request
// costs one dense copy and a post-PATCH request for the new fingerprint is
// served from the incrementally updated Â without ever building a plan
// over the merged matrix. Entries are immutable once inserted (updates
// clone), which is what lets lookups hand the matrix out under no lock.

// DefaultSketchCacheBytes is the Â-cache budget when Config.SketchCacheBytes
// is 0: 64 MiB ≈ a few hundred bench-sized sketches.
const DefaultSketchCacheBytes = 64 << 20

// newSketchCache returns the Â cache: maxBytes of sketches (0 = default,
// negative = unbounded). Entries are immutable: PatchMatrix derives a new
// entry from a clone rather than editing in place.
func newSketchCache(maxBytes int64, r *obs.Registry) *byteLRU[planKey, *dense.Matrix] {
	return newByteLRU[planKey](cmp.Or(maxBytes, DefaultSketchCacheBytes), (*dense.Matrix).MemoryBytes, r, lruMetricNames{
		evictions:     "sketchsp_ref_sketch_cache_evictions_total",
		evictionsHelp: "Cached sketches reclaimed by the Â-cache byte budget.",
		bytes:         "sketchsp_ref_sketch_cache_bytes",
		bytesHelp:     "Summed bytes of cached sketches Â.",
		entries:       "sketchsp_ref_sketch_cache_entries",
		entriesHelp:   "Cached sketches currently resident.",
	})
}

// refMetrics is the by-reference surface's own metric family. It is kept
// apart from svcMetrics so the sketchsp_service_* set stays exactly the
// inline serving story (TestStatsMetricsReconcile pins its cardinality).
type refMetrics struct {
	sketchHits   *obs.Counter
	sketchMisses *obs.Counter
	patches      *obs.Counter
	deltaUpdates *obs.Counter
}

func newRefMetrics(r *obs.Registry) *refMetrics {
	return &refMetrics{
		sketchHits: r.Counter("sketchsp_ref_sketch_hits_total",
			"By-reference requests served from the Â cache (no execute)."),
		sketchMisses: r.Counter("sketchsp_ref_sketch_misses_total",
			"By-reference requests that executed a plan."),
		patches: r.Counter("sketchsp_ref_patches_total",
			"Applied matrix deltas (ΔA merged into a new stored matrix)."),
		deltaUpdates: r.Counter("sketchsp_ref_delta_sketch_updates_total",
			"Cached sketches advanced incrementally by Â += S·ΔA."),
	}
}

// Store exposes the content-addressed matrix store (stats endpoints, the
// shard coordinator's residency checks, tests).
func (s *Service) Store() *store.Store { return s.store }

// PutMatrix uploads a into the content-addressed store and returns its
// identity. Idempotent by content: re-uploading a resident matrix is a
// cheap fingerprint lookup (Info.Created reports which happened). The
// store deep-copies, so the caller keeps ownership of a.
func (s *Service) PutMatrix(ctx context.Context, a *sparse.CSC) (store.Info, error) {
	if err := s.liveErr(); err != nil {
		return store.Info{}, err
	}
	if a == nil {
		return store.Info{}, core.ErrNilMatrix
	}
	if err := ctx.Err(); err != nil {
		return store.Info{}, err
	}
	return s.store.Put(a)
}

// SketchRefInto computes Â = S·A for the stored matrix fp into the caller's
// d×n matrix. The bits are identical to SketchInto with the matrix inline —
// by-reference changes what crosses the wire, never the answer (the
// differential suite pins this). A fingerprint that is not resident fails
// with store.ErrNotFound; the remedy is PutMatrix then retry, which
// internal/client does automatically.
//
// Repeat requests for the same (fp, d, opts) are served from the sketch
// cache without executing; the first request populates it.
func (s *Service) SketchRefInto(ctx context.Context, ahat *dense.Matrix, fp sparse.Fingerprint, d int, opts core.Options) (core.Stats, error) {
	if d <= 0 {
		return core.Stats{}, core.ErrInvalidSketchSize
	}
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	if err := s.admit(ctx); err != nil {
		return core.Stats{}, err
	}
	defer s.exit()

	k := planKey{fp: fp, d: d, opts: opts}
	if cached, ok := s.sketches.get(k); ok {
		ahat.CopyFrom(cached)
		s.refMet.sketchHits.Inc()
		return core.Stats{}, nil
	}
	s.refMet.sketchMisses.Inc()

	p, e, err := s.plan(ctx, k, planSrc{store: s.store, fp: fp})
	if err != nil {
		return core.Stats{}, err
	}
	defer p.Release()
	st, err := p.ExecuteContext(ctx, ahat)
	if err != nil {
		if ctx.Err() != nil {
			s.met.cancels.Inc()
		}
		return core.Stats{}, err
	}
	e.record(st)
	s.sketches.put(k, ahat.Clone())
	return st, nil
}

// SketchRef is SketchRefInto into a fresh d×n matrix; it resolves n from
// the fingerprint (no store round-trip needed — shape is part of identity).
func (s *Service) SketchRef(ctx context.Context, fp sparse.Fingerprint, d int, opts core.Options) (*dense.Matrix, core.Stats, error) {
	ahat := dense.NewMatrix(maxInt(d, 0), fp.N)
	st, err := s.SketchRefInto(ctx, ahat, fp, d, opts)
	if err != nil {
		return nil, core.Stats{}, err
	}
	return ahat, st, nil
}

// PatchMatrix applies the sparse update ΔA to the stored matrix fp: the
// merged A+ΔA enters the store under its own (content-derived) fingerprint,
// which the returned Info reports. The original matrix stays resident and
// addressable — content addressing has no in-place mutation, so nothing is
// invalidated.
//
// Every sketch of A in the Â cache is advanced incrementally:
//
//	Â(A+ΔA) = S·A + S·ΔA = Â(A) + S·ΔA
//
// computed with a plan over ΔA alone — cost O(nnz(ΔA)), not O(nnz(A)).
// A follow-up SketchRefInto for the new fingerprint under the same (d,
// opts) is then an Â-cache hit: no plan is ever built over the merged
// matrix (the metamorphic suite pins this through the build counters).
// Linearity holds exactly over the reals; in floats the incremental sum
// rounds once per touched entry, and is bit-equal to the full resketch
// whenever the products involved are exactly representable (the integer
// regime the suite uses).
func (s *Service) PatchMatrix(ctx context.Context, fp sparse.Fingerprint, delta *sparse.CSC) (store.Info, error) {
	if err := s.liveErr(); err != nil {
		return store.Info{}, err
	}
	if delta == nil {
		return store.Info{}, core.ErrNilMatrix
	}
	if err := s.admit(ctx); err != nil {
		return store.Info{}, err
	}
	defer s.exit()

	h, err := s.store.Get(fp)
	if err != nil {
		return store.Info{}, err
	}
	defer h.Release()
	if err := delta.Validate(); err != nil {
		return store.Info{}, err
	}
	sum, err := sparse.Add(h.Matrix(), delta)
	if err != nil {
		return store.Info{}, err
	}
	// sparse.Add allocates the merge fresh, so hand it over without another
	// copy. If the delta cancels to an already-stored content (empty ΔA
	// included), this is a duplicate put and Created=false.
	info, err := s.store.PutOwned(sum)
	if err != nil {
		return store.Info{}, err
	}
	s.refMet.patches.Inc()

	// Advance the cached sketches. Each uses an ephemeral plan over ΔA with
	// the *same options* as its cache key: BlockD resolution depends only on
	// (opts, d) and ΔA shares A's shape, so the sampler partition — and
	// hence every generated S entry — matches the one the cached Â saw.
	for _, se := range s.sketches.matching(func(k planKey) bool { return k.fp == fp }) {
		if err := ctx.Err(); err != nil {
			return info, err
		}
		next, uerr := advanceSketch(se.val, delta, se.key.d, se.key.opts)
		if uerr != nil {
			// The merged matrix is stored and correct; a failed advance only
			// costs the next request a full (cache-miss) resketch.
			continue
		}
		s.sketches.put(planKey{fp: info.Fp, d: se.key.d, opts: se.key.opts}, next)
		s.refMet.deltaUpdates.Inc()
	}
	return info, nil
}

// advanceSketch returns Â + S·ΔA as a fresh matrix, leaving ahat untouched.
func advanceSketch(ahat *dense.Matrix, delta *sparse.CSC, d int, opts core.Options) (*dense.Matrix, error) {
	p, err := core.NewPlan(delta, d, opts)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	inc := dense.NewMatrix(ahat.Rows, ahat.Cols)
	if _, err := p.Execute(inc); err != nil {
		return nil, err
	}
	next := ahat.Clone()
	for j := 0; j < next.Cols; j++ {
		dst, src := next.Col(j), inc.Col(j)
		for i, v := range src {
			// Skip exact-zero increments: untouched entries keep their bit
			// pattern (adding +0.0 would flip a cached -0.0 to +0.0 and
			// break the bit-identity contract with the inline path).
			if v != 0 {
				dst[i] += v
			}
		}
	}
	return next, nil
}

// liveErr reports ErrClosed after Close.
func (s *Service) liveErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return nil
}
