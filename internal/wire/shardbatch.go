package wire

import "fmt"

// Shard batch messages are the only shard frames: the coordinator ships
// every column shard of one request that routes to the same worker as a
// single MsgShardBatchRequest frame, and the worker answers every shard in
// one MsgShardBatchResponse. With N shards on K peers the fan-out is K
// round trips; a shard that routes alone, and every hedge or failover
// attempt, travels as a batch of one.
//
// Both payloads reuse the count-prefixed batch envelope of
// MsgBatchRequest/MsgBatchResponse around the shard item layouts of
// shard.go:
//
//	u32 count | count × (u32 len | shard request/response item)
//
// The request decoder additionally enforces what the coordinator's
// coverage-checked merge would otherwise catch one layer later: every item
// must name the same full matrix width (nTotal), and the items must be
// sorted by j0 with pairwise-disjoint [j0, j0+n) column ranges. A frame
// that batches overlapping shards is structurally malformed — there is no
// honest request it could encode — and rejecting it at decode time keeps
// the duplicate-coverage invariant of the Accumulator (DESIGN.md §10)
// unreachable from the network.

const (
	// MsgShardBatchRequest carries several column shards of one sketch
	// request bound for the same worker (shardbatch.go).
	MsgShardBatchRequest MsgType = 16
	// MsgShardBatchResponse is the index-aligned sequence of shard
	// responses answering a MsgShardBatchRequest.
	MsgShardBatchResponse MsgType = 17
)

// AppendShardBatchRequest appends a shard batch request payload: count,
// then each shard request length-prefixed. The encoder does not validate
// the disjointness invariant — tests deliberately encode malformed batches
// to pin the decoder's rejections — but every frame the coordinator builds
// satisfies it by construction (shards tile [0, n)).
func AppendShardBatchRequest(dst []byte, reqs []ShardRequest) []byte {
	return appendBatch(dst, len(reqs), func(dst []byte, i int) []byte { return AppendShardRequest(dst, &reqs[i]) })
}

// DecodeShardBatchRequest decodes a shard batch request payload, enforcing
// the cross-item invariants: one shared nTotal, items sorted by j0 with
// disjoint column ranges.
func DecodeShardBatchRequest(payload []byte) ([]ShardRequest, error) {
	reqs, err := decodeBatch(payload, DecodeShardRequestInto)
	if err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("%w: empty shard batch", ErrMalformed)
	}
	nextJ0 := 0
	for i := range reqs {
		if reqs[i].NTotal != reqs[0].NTotal {
			return nil, fmt.Errorf("%w: shard batch item %d names nTotal %d, item 0 named %d", ErrMalformed, i, reqs[i].NTotal, reqs[0].NTotal)
		}
		if reqs[i].J0 < nextJ0 {
			return nil, fmt.Errorf("%w: shard batch item %d range [%d:%d) overlaps or precedes prior end %d", ErrMalformed, i, reqs[i].J0, reqs[i].J0+reqs[i].A.N, nextJ0)
		}
		nextJ0 = reqs[i].J0 + reqs[i].A.N
	}
	return reqs, nil
}

// AppendShardBatchResponse appends a shard batch response payload: count,
// then each shard response length-prefixed.
func AppendShardBatchResponse(dst []byte, rs []ShardResponse) []byte {
	return appendBatch(dst, len(rs), func(dst []byte, i int) []byte { return AppendShardResponse(dst, &rs[i]) })
}

// DecodeShardBatchResponse decodes a shard batch response payload. Items
// answer the request's shards index-aligned; per-item errors surface as
// non-OK statuses, and the coordinator cross-checks each OK item's J0 echo
// against the shard it placed, so the decoder imposes no cross-item
// constraints of its own.
func DecodeShardBatchResponse(payload []byte) ([]ShardResponse, error) {
	return decodeBatch(payload, DecodeShardResponseInto)
}

// EncodeShardBatchRequestFrame returns a complete shard batch request
// frame, ready for an HTTP body. A batch whose total payload exceeds the
// 32-bit frame length fails with ErrTooLarge.
func EncodeShardBatchRequestFrame(reqs []ShardRequest) ([]byte, error) {
	payload := AppendShardBatchRequest(make([]byte, 0, ShardBatchRequestWireSize(reqs)-HeaderSize), reqs)
	return AppendFrame(make([]byte, 0, HeaderSize+len(payload)), MsgShardBatchRequest, payload)
}

// ShardBatchRequestWireSize returns the exact on-the-wire frame size of a
// shard batch — header plus payload — without encoding, for the
// coordinator's per-peer byte metering.
func ShardBatchRequestWireSize(reqs []ShardRequest) int {
	size := HeaderSize + 4
	for i := range reqs {
		size += 4 + shardRequestSize(&reqs[i])
	}
	return size
}
