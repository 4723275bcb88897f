package wire

import (
	"fmt"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
)

// Shard items are the coordinator↔worker leg of the distributed serving
// layer: a coordinator splits A into column shards A[:, j0:j1], ships the
// shards bound for one worker as the items of a MsgShardBatchRequest
// (shardbatch.go; a lone shard is a batch of one), and the worker answers
// each with the partial sketch S·A[:, j0:j1] — which, because S[i,j]
// depends only on the global row index j (never on which columns ride
// along), is bit-identical to columns [j0, j1) of the full sketch. The item
// layouts are versioned and fuzzed like the rest of the codec.
//
// Shard request item:
//
//	u64 j0 | u64 nTotal | single-request payload (to end of item)
//
// j0 is the shard's first column in the full matrix and nTotal the full
// matrix's column count; j0 + A.N <= nTotal is enforced on decode. The
// embedded request is byte-for-byte a MsgSketchRequest payload, so a worker
// executes it through the same plan-cache path as any other request.
//
// Shard response item:
//
//	u8 status
//	status == StatusOK:  u64 j0 | i64 samples | i64 flops | i64 sampleNS |
//	                     i64 convertNS | i64 totalNS | i64 steals |
//	                     f64 imbalance | dense payload (to end of item)
//	status != StatusOK:  the error form (wire.go)
//
// The error form is the one every response shares, so the client's status
// peek reads shard items and sketch responses alike.

// ShardRequest is the decoded form of a shard request item: the embedded
// single-sketch request plus the shard's placement in the full matrix.
type ShardRequest struct {
	J0     int // first column of the shard in the full matrix
	NTotal int // column count of the full matrix
	SketchRequest
}

// ShardResponse is the decoded form of a shard response item. A non-OK
// Status carries only Detail; StatusOK carries the partial sketch (the
// shard's d×(j1−j0) columns), its placement J0, and the execute Stats.
type ShardResponse struct {
	Status  Status
	Detail  string
	J0      int
	Stats   core.Stats
	Partial *dense.Matrix
}

// Err converts the response outcome into an error (nil for StatusOK),
// unwrapping to the canonical sentinel of the status.
func (r *ShardResponse) Err() error { return r.Status.Err(r.Detail) }

// shardRequestFixedSize is the (j0, nTotal) prefix before the embedded
// single-request payload.
const shardRequestFixedSize = 8 + 8

// shardRequestSize is the encoded length of r's shard request item.
func shardRequestSize(r *ShardRequest) int {
	return shardRequestFixedSize + requestFixedSize + cscPayloadSize(r.A)
}

// AppendShardRequest appends r's shard request item to dst.
func AppendShardRequest(dst []byte, r *ShardRequest) []byte {
	dst = appendU64(dst, uint64(r.J0))
	dst = appendU64(dst, uint64(r.NTotal))
	return AppendRequest(dst, r.D, r.Opts, r.A)
}

// DecodeShardRequestInto decodes a shard request item into dst, reusing
// dst.A's slice capacity when non-nil.
func DecodeShardRequestInto(dst *ShardRequest, payload []byte) error {
	if len(payload) < shardRequestFixedSize {
		return fmt.Errorf("%w: shard request payload %d bytes, want >= %d", ErrMalformed, len(payload), shardRequestFixedSize)
	}
	j0 := getU64(payload[0:])
	nTotal := getU64(payload[8:])
	if j0 > MaxDim || nTotal > MaxDim {
		return fmt.Errorf("%w: shard placement j0=%d nTotal=%d exceeds MaxDim", ErrMalformed, j0, nTotal)
	}
	if err := DecodeRequestInto(&dst.SketchRequest, payload[shardRequestFixedSize:]); err != nil {
		return err
	}
	if j0+uint64(dst.A.N) > nTotal {
		return fmt.Errorf("%w: shard [%d:%d) exceeds nTotal %d", ErrMalformed, j0, j0+uint64(dst.A.N), nTotal)
	}
	dst.J0 = int(j0)
	dst.NTotal = int(nTotal)
	return nil
}

// AppendShardResponse appends r's shard response item to dst.
func AppendShardResponse(dst []byte, r *ShardResponse) []byte {
	if r.Status != StatusOK {
		return AppendError(dst, r.Status, r.Detail)
	}
	dst = appendU64(append(dst, byte(StatusOK)), uint64(r.J0))
	return AppendDense(appendStats(dst, r.Stats), r.Partial)
}

// DecodeShardResponseInto decodes a shard response item into dst, reusing
// dst.Partial's Data capacity when non-nil.
func DecodeShardResponseInto(dst *ShardResponse, payload []byte) error {
	st, detail, err := DecodeError(payload)
	if err != nil {
		return err
	}
	dst.Status, dst.Detail = st, detail
	if st != StatusOK {
		dst.J0, dst.Stats, dst.Partial = 0, core.Stats{}, nil
		return nil
	}
	if len(payload) < 1+8 {
		return fmt.Errorf("%w: truncated shard response stats", ErrMalformed)
	}
	j0 := getU64(payload[1:])
	if j0 > MaxDim {
		return fmt.Errorf("%w: shard j0 %d exceeds MaxDim", ErrMalformed, j0)
	}
	dst.J0 = int(j0)
	if dst.Stats, err = decodeStats(payload[9:]); err != nil {
		return err
	}
	if dst.Partial == nil {
		dst.Partial = new(dense.Matrix)
	}
	return DecodeDenseInto(dst.Partial, payload[9+statsWireSize:])
}
