package wire

import (
	"fmt"
	"math"
	"time"

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
//	status != StatusOK:  u32 detailLen | detailLen bytes of UTF-8 detail
//
// The error form matches MsgSketchResponse exactly, so the client's status
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
	dst = append(dst, byte(r.Status))
	if r.Status != StatusOK {
		dst = appendU32(dst, uint32(len(r.Detail)))
		return append(dst, r.Detail...)
	}
	dst = appendU64(dst, uint64(r.J0))
	dst = appendU64(dst, uint64(r.Stats.Samples))
	dst = appendU64(dst, uint64(r.Stats.Flops))
	dst = appendU64(dst, uint64(r.Stats.SampleTime.Nanoseconds()))
	dst = appendU64(dst, uint64(r.Stats.ConvertTime.Nanoseconds()))
	dst = appendU64(dst, uint64(r.Stats.Total.Nanoseconds()))
	dst = appendU64(dst, uint64(r.Stats.Steals))
	dst = appendU64(dst, math.Float64bits(r.Stats.Imbalance))
	return AppendDense(dst, r.Partial)
}

// DecodeShardResponseInto decodes a shard response item into dst, reusing
// dst.Partial's Data capacity when non-nil.
func DecodeShardResponseInto(dst *ShardResponse, payload []byte) error {
	if len(payload) < 1 {
		return fmt.Errorf("%w: empty shard response payload", ErrMalformed)
	}
	st := Status(payload[0])
	if st > maxStatus {
		return fmt.Errorf("%w: unknown status %d", ErrMalformed, payload[0])
	}
	dst.Status = st
	if st != StatusOK {
		if len(payload) < 5 {
			return fmt.Errorf("%w: truncated shard error response", ErrMalformed)
		}
		n := uint64(getU32(payload[1:5]))
		if uint64(len(payload)-5) != n {
			return fmt.Errorf("%w: shard error detail %d bytes, want %d", ErrMalformed, len(payload)-5, n)
		}
		dst.Detail = string(payload[5:])
		dst.J0 = 0
		dst.Stats = core.Stats{}
		dst.Partial = nil
		return nil
	}
	const fixed = 8 + 6*8 + 8 // j0, six integer stats, imbalance
	if len(payload) < 1+fixed {
		return fmt.Errorf("%w: truncated shard response stats", ErrMalformed)
	}
	j0 := getU64(payload[1:])
	samples := int64(getU64(payload[9:]))
	flops := int64(getU64(payload[17:]))
	sampleNS := int64(getU64(payload[25:]))
	convertNS := int64(getU64(payload[33:]))
	totalNS := int64(getU64(payload[41:]))
	steals := int64(getU64(payload[49:]))
	imb := math.Float64frombits(getU64(payload[57:]))
	if j0 > MaxDim {
		return fmt.Errorf("%w: shard j0 %d exceeds MaxDim", ErrMalformed, j0)
	}
	if samples < 0 || flops < 0 || sampleNS < 0 || convertNS < 0 || totalNS < 0 || steals < 0 {
		return fmt.Errorf("%w: negative shard response stats", ErrMalformed)
	}
	if math.IsNaN(imb) || math.IsInf(imb, 0) || imb < 0 {
		return fmt.Errorf("%w: non-finite or negative imbalance", ErrMalformed)
	}
	dst.Detail = ""
	dst.J0 = int(j0)
	dst.Stats = core.Stats{
		Samples:     samples,
		Flops:       flops,
		SampleTime:  time.Duration(sampleNS),
		ConvertTime: time.Duration(convertNS),
		Total:       time.Duration(totalNS),
		Steals:      steals,
		Imbalance:   imb,
	}
	if dst.Partial == nil {
		dst.Partial = new(dense.Matrix)
	}
	return DecodeDenseInto(dst.Partial, payload[1+fixed:])
}
