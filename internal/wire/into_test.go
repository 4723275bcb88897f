package wire

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

// The *Into decoders reuse the scratch they decode into: the server's
// pooled request items and the coordinator's pooled partials. Decoding
// into scratch that last held a different, larger frame must give exactly
// what a fresh decode gives — no stale ColPtr/RowIdx/Val tails, details,
// stats or partial columns. intoMismatch checks that for one payload;
// TestIntoDecodersOverDirtyScratch runs it over the committed corpus and
// FuzzWireRoundtrip over every input it accepts.

// dirtyPayloads are, per message type, the larger payloads the scratch is
// filled from before the payload under test is decoded into it: bigger
// matrices, more batch items, and both outcomes in every item position.
var dirtyPayloads = sync.OnceValue(func() map[MsgType][][]byte {
	a := sparse.RandomUniform(400, 120, 0.05, 9)
	opts := core.Options{Algorithm: core.Alg4, Dist: rng.Gaussian, Source: rng.SourcePhilox, Seed: 99,
		BlockD: 7, BlockN: 9, Workers: 3, Sched: core.SchedUniform, Sparsity: 2, RNGCost: 1.5, Timed: true, TuneBlockN: true}
	ahat := dense.NewMatrix(9, 130)
	for i := range ahat.Data {
		ahat.Data[i] = float64(i) + 0.25
	}
	stats := core.Stats{Samples: 5, Flops: 6, SampleTime: 7, ConvertTime: 8, Total: 9, Steals: 10, Imbalance: 1.5}
	ok := SketchResponse{Status: StatusOK, Stats: stats, Ahat: ahat}
	failed := SketchResponse{Status: StatusOverloaded, Detail: "a long detail the next decode must not keep"}
	shard := func(j0 int) ShardRequest {
		return ShardRequest{J0: j0, NTotal: 3 * a.N, SketchRequest: SketchRequest{D: 50, Opts: opts, A: a}}
	}
	shardOK := ShardResponse{Status: StatusOK, J0: 11, Stats: stats, Partial: ahat}
	shardFailed := ShardResponse{Status: failed.Status, Detail: failed.Detail}
	return map[MsgType][][]byte{
		MsgCSC:            {AppendCSC(nil, a)},
		MsgDense:          {AppendDense(nil, ahat)},
		MsgSketchRequest:  {AppendRequest(nil, 50, opts, a)},
		MsgSketchResponse: {AppendResponse(nil, &ok), AppendResponse(nil, &failed)},
		MsgBatchRequest: {AppendBatchRequest(nil, []SketchRequest{
			{D: 50, Opts: opts, A: a}, {D: 51, Opts: opts, A: a}, {D: 52, Opts: opts, A: a}})},
		MsgBatchResponse: {
			AppendBatchResponse(nil, []SketchResponse{ok, failed, ok}),
			AppendBatchResponse(nil, []SketchResponse{failed, ok, failed}),
		},
		MsgShardBatchRequest: {AppendShardBatchRequest(nil, []ShardRequest{shard(0), shard(a.N), shard(2 * a.N)})},
		MsgShardBatchResponse: {
			AppendShardBatchResponse(nil, []ShardResponse{shardOK, shardFailed, shardOK}),
			AppendShardBatchResponse(nil, []ShardResponse{shardFailed, shardOK, shardFailed}),
		},
	}
})

// intoMismatch decodes payload, a frame of type typ, freshly and through
// the type's *Into decoder into scratch that last held each of the type's
// dirty payloads, and describes the first difference ("" when there is
// none). decoded reports whether typ has an *Into decoder and the payload
// decodes.
func intoMismatch(typ MsgType, payload []byte) (decoded bool, msg string) {
	dirty := dirtyPayloads()[typ]
	switch typ {
	case MsgCSC:
		return checkInto(dirty, payload, deref(DecodeCSC), DecodeCSCInto)
	case MsgDense:
		return checkInto(dirty, payload, deref(DecodeDense), DecodeDenseInto)
	case MsgSketchRequest:
		return checkInto(dirty, payload, DecodeRequest, DecodeRequestInto)
	case MsgSketchResponse:
		return checkInto(dirty, payload, deref(DecodeResponse), DecodeResponseInto)
	case MsgBatchRequest:
		return checkInto(dirty, payload, DecodeBatchRequest, sliceInto(DecodeBatchRequestInto))
	case MsgBatchResponse:
		return checkInto(dirty, payload, DecodeBatchResponse, sliceInto(func(dst []SketchResponse, p []byte) ([]SketchResponse, error) {
			return decodeBatchInto(dst, p, DecodeResponseInto)
		}))
	case MsgShardBatchRequest:
		return checkInto(dirty, payload, DecodeShardBatchRequest, sliceInto(DecodeShardBatchRequestInto))
	case MsgShardBatchResponse:
		return checkInto(dirty, payload, DecodeShardBatchResponse, sliceInto(DecodeShardBatchResponseInto))
	}
	return false, ""
}

func checkInto[T any](dirty [][]byte, payload []byte, fresh func([]byte) (T, error), into func(*T, []byte) error) (bool, string) {
	want, err := fresh(payload)
	if err != nil {
		return false, ""
	}
	for i, d := range dirty {
		var scratch T
		if err := into(&scratch, d); err != nil {
			return true, fmt.Sprintf("dirty payload %d does not decode: %v", i, err)
		}
		if err := into(&scratch, payload); err != nil {
			return true, fmt.Sprintf("decode into the scratch of dirty payload %d failed where a fresh decode succeeds: %v", i, err)
		}
		if !sameValue(reflect.ValueOf(&want).Elem(), reflect.ValueOf(&scratch).Elem()) {
			return true, fmt.Sprintf("decode into the scratch of dirty payload %d differs from a fresh decode:\n got %+v\nwant %+v", i, scratch, want)
		}
	}
	return true, ""
}

// deref adapts a decoder returning a fresh pointer to checkInto's value form.
func deref[T any](decode func([]byte) (*T, error)) func([]byte) (T, error) {
	return func(p []byte) (T, error) {
		v, err := decode(p)
		if err != nil {
			var zero T
			return zero, err
		}
		return *v, nil
	}
}

// sliceInto adapts a batch *Into decoder to checkInto's pointer form.
func sliceInto[T any](decode func([]T, []byte) ([]T, error)) func(*[]T, []byte) error {
	return func(dst *[]T, p []byte) (err error) {
		*dst, err = decode(*dst, p)
		return err
	}
}

// sameValue is reflect.DeepEqual for decoded messages, except that a nil
// slice equals an empty one (scratch keeps its emptied slices where a fresh
// decode has none) and floats compare by bits (NaN payloads and -0.0
// included).
func sameValue(x, y reflect.Value) bool {
	switch x.Kind() {
	case reflect.Pointer:
		if x.IsNil() || y.IsNil() {
			return x.IsNil() == y.IsNil()
		}
		return sameValue(x.Elem(), y.Elem())
	case reflect.Struct:
		for i := 0; i < x.NumField(); i++ {
			if !sameValue(x.Field(i), y.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if x.Len() != y.Len() {
			return false
		}
		for i := 0; i < x.Len(); i++ {
			if !sameValue(x.Index(i), y.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(x.Float()) == math.Float64bits(y.Float())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return x.Int() == y.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return x.Uint() == y.Uint()
	case reflect.Bool:
		return x.Bool() == y.Bool()
	case reflect.String:
		return x.String() == y.String()
	}
	panic("sameValue: unhandled kind " + x.Kind().String())
}

// committedCorpus returns the committed FuzzWireRoundtrip corpus entries
// by file name.
func committedCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzWireRoundtrip")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make(map[string][]byte, len(files))
	for _, fi := range files {
		raw, err := os.ReadFile(filepath.Join(dir, fi.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSuffix(strings.TrimPrefix(string(raw), "go test fuzz v1\n[]byte("), ")\n")
		body, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: not a []byte corpus entry: %v", fi.Name(), err)
		}
		seeds[fi.Name()] = []byte(body)
	}
	return seeds
}

// TestIntoDecodersOverDirtyScratch decodes every committed corpus seed
// that decodes, and has an *Into decoder, into dirty scratch and requires
// the fresh decode's exact value.
func TestIntoDecodersOverDirtyScratch(t *testing.T) {
	checked := 0
	for name, frame := range committedCorpus(t) {
		typ, payload, _, err := SplitFrame(frame, 1<<22)
		if err != nil {
			continue
		}
		decoded, msg := intoMismatch(typ, payload)
		if msg != "" {
			t.Errorf("%s: %s", name, msg)
		}
		if decoded {
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no committed seed decoded through an *Into decoder")
	}
}
