package wire

import (
	"bytes"
	"errors"
	"testing"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
)

func TestShardRequestRoundtrip(t *testing.T) {
	for name, a := range testCSCs() {
		req := &ShardRequest{
			J0:     3,
			NTotal: a.N + 7,
			SketchRequest: SketchRequest{
				D:    9,
				Opts: core.Options{Dist: rng.Gaussian, Seed: 17, BlockD: 4},
				A:    a,
			},
		}
		payload := AppendShardRequest(nil, req)
		got := new(ShardRequest)
		if err := DecodeShardRequestInto(got, payload); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if got.J0 != req.J0 || got.NTotal != req.NTotal || got.D != req.D || got.Opts != req.Opts {
			t.Fatalf("%s: fields mismatch: %+v vs %+v", name, got, req)
		}
		if !bytes.Equal(AppendShardRequest(nil, got), payload) {
			t.Fatalf("%s: re-encode differs", name)
		}
	}
}

func TestShardRequestPlacementValidation(t *testing.T) {
	a := testCSCs()["uniform-200x40"]
	req := &ShardRequest{J0: 5, NTotal: a.N + 2, SketchRequest: SketchRequest{D: 3, A: a}}
	payload := AppendShardRequest(nil, req)
	var got ShardRequest
	if err := DecodeShardRequestInto(&got, payload); !errors.Is(err, ErrMalformed) {
		t.Fatalf("overhanging shard decoded: %v", err)
	}
	req.NTotal = a.N + 5 // exactly j0 + n: legal
	if err := DecodeShardRequestInto(&got, AppendShardRequest(nil, req)); err != nil {
		t.Fatalf("exact-fit shard rejected: %v", err)
	}
	if err := DecodeShardRequestInto(&got, payload[:10]); !errors.Is(err, ErrMalformed) {
		t.Fatal("truncated shard request decoded")
	}
}

func TestShardResponseRoundtrip(t *testing.T) {
	ok := &ShardResponse{
		Status: StatusOK,
		J0:     11,
		Stats:  core.Stats{Samples: 40, Flops: 80, SampleTime: 1200, Total: 9000, Steals: 2, Imbalance: 1.25},
		Partial: dense.NewMatrixFrom(2, 3, []float64{
			1, -2, 3.5, 0, 0.25, -9,
		}),
	}
	bad := &ShardResponse{Status: StatusOverloaded, Detail: "queue full"}
	for _, r := range []*ShardResponse{ok, bad} {
		payload := AppendShardResponse(nil, r)
		got := new(ShardResponse)
		if err := DecodeShardResponseInto(got, payload); err != nil {
			t.Fatalf("%v: decode: %v", r.Status, err)
		}
		if got.Status != r.Status || got.Detail != r.Detail || got.J0 != r.J0 {
			t.Fatalf("%v: fields mismatch: %+v vs %+v", r.Status, got, r)
		}
		if got.Stats.Samples != r.Stats.Samples || got.Stats.SampleTime != r.Stats.SampleTime ||
			got.Stats.Total != r.Stats.Total || got.Stats.Steals != r.Stats.Steals ||
			got.Stats.Imbalance != r.Stats.Imbalance {
			t.Fatalf("%v: stats mismatch: %+v vs %+v", r.Status, got.Stats, r.Stats)
		}
		if !bytes.Equal(AppendShardResponse(nil, got), payload) {
			t.Fatalf("%v: re-encode differs", r.Status)
		}
		st, err := PeekStatus(payload)
		if err != nil || st != r.Status {
			t.Fatalf("%v: peek = %v, %v", r.Status, st, err)
		}
	}
	if err := bad.Err(); !errors.Is(err, errOverloadedSentinel()) {
		t.Fatalf("shard overload does not unwrap: %v", err)
	}
}

// errOverloadedSentinel avoids importing service in two places; the status
// sentinel mapping is already pinned in wire_test.go, this just reuses it.
func errOverloadedSentinel() error { return StatusOverloaded.sentinel() }

func TestShardResponseErrorFormMatchesSketchResponse(t *testing.T) {
	// A shard error item is byte-identical to the generic error form, so
	// the client's status peek reads both alike.
	generic := AppendResponse(nil, &SketchResponse{Status: StatusClosed, Detail: "draining"})
	got := new(ShardResponse)
	if err := DecodeShardResponseInto(got, generic); err != nil {
		t.Fatalf("decode generic error as shard response: %v", err)
	}
	if got.Status != StatusClosed || got.Detail != "draining" {
		t.Fatalf("got %+v", got)
	}
	asShard := AppendShardResponse(nil, &ShardResponse{Status: StatusClosed, Detail: "draining"})
	if !bytes.Equal(generic, asShard) {
		t.Fatal("error forms diverged between sketch and shard responses")
	}
}

func TestShardBatchRequestRoundtrip(t *testing.T) {
	shapes := testCSCs()
	a := shapes["uniform-200x40"]
	reqs := []ShardRequest{
		{J0: 0, NTotal: 128, SketchRequest: SketchRequest{
			D: 6, Opts: core.Options{Dist: rng.Rademacher, Seed: 21}, A: a,
		}},
		{J0: 40, NTotal: 128, SketchRequest: SketchRequest{
			D: 6, Opts: core.Options{Dist: rng.Rademacher, Seed: 21}, A: a,
		}},
		{J0: 80, NTotal: 128, SketchRequest: SketchRequest{
			D: 6, Opts: core.Options{Dist: rng.Rademacher, Seed: 21}, A: shapes["degenerate-0xn"],
		}},
	}
	payload := AppendShardBatchRequest(nil, reqs)
	got, err := DecodeShardBatchRequest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("decoded %d items, want %d", len(got), len(reqs))
	}
	for i := range got {
		if got[i].J0 != reqs[i].J0 || got[i].NTotal != reqs[i].NTotal || got[i].D != reqs[i].D {
			t.Fatalf("item %d mismatch: %+v vs %+v", i, got[i], reqs[i])
		}
	}
	if !bytes.Equal(AppendShardBatchRequest(nil, got), payload) {
		t.Fatal("re-encode differs")
	}

	frame, err := EncodeShardBatchRequestFrame(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if want := HeaderSize + ShardBatchRequestSize(reqs); want != len(frame) {
		t.Fatalf("HeaderSize + ShardBatchRequestSize = %d, frame is %d bytes", want, len(frame))
	}
	typ, fp, rest, err := SplitFrame(frame, 0)
	if err != nil || typ != MsgShardBatchRequest || len(rest) != 0 {
		t.Fatalf("frame split: typ=%v rest=%d err=%v", typ, len(rest), err)
	}
	if !bytes.Equal(fp, payload) {
		t.Fatal("frame payload differs from raw payload")
	}
}

// TestShardBatchRequestRejections pins the cross-item invariants the batch
// decoder adds over the single-shard decoder: non-empty, one shared nTotal,
// items sorted by j0 with disjoint column ranges. These are the wire-level
// face of the Accumulator's duplicate-coverage rejection — a frame that
// batches overlapping shards is unreachable past this decoder.
func TestShardBatchRequestRejections(t *testing.T) {
	a := testCSCs()["uniform-200x40"] // N = 40
	mk := func(j0, nTotal int) ShardRequest {
		return ShardRequest{J0: j0, NTotal: nTotal, SketchRequest: SketchRequest{D: 2, A: a}}
	}
	cases := map[string][]ShardRequest{
		"empty-batch":        {},
		"overlapping-ranges": {mk(0, 100), mk(39, 100)},
		"duplicate-j0":       {mk(0, 100), mk(0, 100)},
		"unsorted":           {mk(40, 100), mk(0, 100)},
		"mixed-ntotal":       {mk(0, 100), mk(40, 101)},
	}
	for name, reqs := range cases {
		payload := AppendShardBatchRequest(nil, reqs)
		if _, err := DecodeShardBatchRequest(payload); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: decoded cleanly, want ErrMalformed (got %v)", name, err)
		}
	}
	// Adjacent shards tiling [0, n) exactly are the legal shape.
	if _, err := DecodeShardBatchRequest(AppendShardBatchRequest(nil, []ShardRequest{mk(0, 80), mk(40, 80)})); err != nil {
		t.Fatalf("adjacent tiling rejected: %v", err)
	}
}

func TestShardBatchResponseRoundtrip(t *testing.T) {
	rs := []ShardResponse{
		{Status: StatusOK, J0: 0, Stats: core.Stats{Samples: 8, Flops: 16, Imbalance: 1.5},
			Partial: dense.NewMatrixFrom(2, 2, []float64{1, -0.5, 0, 3})},
		{Status: StatusOverloaded, Detail: "queue full"},
		{Status: StatusOK, J0: 7, Partial: dense.NewMatrix(2, 0)},
	}
	payload := AppendShardBatchResponse(nil, rs)
	got, err := DecodeShardBatchResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rs) {
		t.Fatalf("decoded %d items, want %d", len(got), len(rs))
	}
	for i := range got {
		if got[i].Status != rs[i].Status || got[i].Detail != rs[i].Detail || got[i].J0 != rs[i].J0 {
			t.Fatalf("item %d mismatch: %+v vs %+v", i, got[i], rs[i])
		}
	}
	if !bytes.Equal(AppendShardBatchResponse(nil, got), payload) {
		t.Fatal("re-encode differs")
	}
	// The item payloads share the single-response status prefix, so the
	// client's batch status peek (SplitBatchPayload + PeekStatus per
	// item) works unchanged on shard batches.
	items, err := SplitBatchPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	for i, item := range items {
		st, err := PeekStatus(item)
		if err != nil || st != rs[i].Status {
			t.Fatalf("item %d: peek = %v, %v", i, st, err)
		}
	}
}
