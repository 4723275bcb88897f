package wire

import (
	"bytes"
	"errors"
	"testing"
)

// TestErrorFormSharedByEveryResponse: the five response payloads encode an
// error as the bytes AppendError writes, each type's decoder and
// DecodeError read those bytes alike, and a truncated or over-long detail
// is ErrMalformed for all of them.
func TestErrorFormSharedByEveryResponse(t *testing.T) {
	type codec struct {
		name   string
		encode func(st Status, detail string) []byte
		decode func(payload []byte) (Status, string, error)
	}
	codecs := []codec{
		{"sketch-response",
			func(st Status, d string) []byte { return AppendResponse(nil, &SketchResponse{Status: st, Detail: d}) },
			func(p []byte) (Status, string, error) {
				r, err := DecodeResponse(p)
				if err != nil {
					return 0, "", err
				}
				return r.Status, r.Detail, nil
			}},
		{"shard-response",
			func(st Status, d string) []byte {
				return AppendShardResponse(nil, &ShardResponse{Status: st, Detail: d})
			},
			func(p []byte) (Status, string, error) {
				var r ShardResponse
				err := DecodeShardResponseInto(&r, p)
				return r.Status, r.Detail, err
			}},
		{"matrix-info",
			func(st Status, d string) []byte { return AppendMatrixInfo(nil, &MatrixInfo{Status: st, Detail: d}) },
			func(p []byte) (Status, string, error) {
				r, err := DecodeMatrixInfo(p)
				if err != nil {
					return 0, "", err
				}
				return r.Status, r.Detail, nil
			}},
		{"solve-response",
			func(st Status, d string) []byte {
				return AppendSolveResponse(nil, &SolveResponse{Status: st, Detail: d})
			},
			func(p []byte) (Status, string, error) {
				r, err := DecodeSolveResponse(p)
				if err != nil {
					return 0, "", err
				}
				return r.Status, r.Detail, nil
			}},
		{"job-status",
			func(st Status, d string) []byte { return AppendJobStatus(nil, &JobStatus{Status: st, Detail: d}) },
			func(p []byte) (Status, string, error) {
				r, err := DecodeJobStatus(p)
				if err != nil {
					return 0, "", err
				}
				return r.Status, r.Detail, nil
			}},
	}
	for _, c := range codecs {
		for st := StatusInvalidMatrix; st <= maxStatus; st++ {
			for _, detail := range []string{"", "queue full", "ünïcode ✓"} {
				want := AppendError(nil, st, detail)
				got := c.encode(st, detail)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s %v %q: encodes % x, want the error form % x", c.name, st, detail, got, want)
				}
				gs, gd, err := c.decode(got)
				ss, sd, serr := DecodeError(got)
				if err != nil || serr != nil || gs != st || ss != st || gd != detail || sd != detail {
					t.Fatalf("%s %v %q: own decoder (%v, %q, %v), shared (%v, %q, %v)",
						c.name, st, detail, gs, gd, err, ss, sd, serr)
				}
				for name, bad := range map[string][]byte{
					"truncated detail": got[:len(got)-1],
					"over-long detail": append(append([]byte(nil), got...), 'x'),
					"truncated length": got[:3],
				} {
					if _, _, err := c.decode(bad); !errors.Is(err, ErrMalformed) {
						t.Errorf("%s %v %q %s: own decoder err = %v, want ErrMalformed", c.name, st, detail, name, err)
					}
					if _, _, err := DecodeError(bad); !errors.Is(err, ErrMalformed) {
						t.Errorf("%s %v %q %s: DecodeError err = %v, want ErrMalformed", c.name, st, detail, name, err)
					}
				}
			}
		}
	}

	// The batch response types carry the same form as their single item.
	st, detail := StatusOverloaded, "shed"
	if got, want := AppendErrorPayload(nil, MsgBatchResponse, st, detail),
		AppendBatchResponse(nil, []SketchResponse{{Status: st, Detail: detail}}); !bytes.Equal(got, want) {
		t.Errorf("batch error payload % x, want % x", got, want)
	}
	if got, want := AppendErrorPayload(nil, MsgShardBatchResponse, st, detail),
		AppendShardBatchResponse(nil, []ShardResponse{{Status: st, Detail: detail}}); !bytes.Equal(got, want) {
		t.Errorf("shard batch error payload % x, want % x", got, want)
	}
	for _, typ := range []MsgType{MsgSketchResponse, MsgMatrixInfo, MsgSolveResponse, MsgJobStatus} {
		if got := AppendErrorPayload(nil, typ, st, detail); !bytes.Equal(got, AppendError(nil, st, detail)) {
			t.Errorf("%v error payload % x is not the error form", typ, got)
		}
	}
	// An OK payload has no error form: DecodeError reports StatusOK and
	// leaves the rest alone; an empty or unknown status is malformed.
	if st, detail, err := DecodeError([]byte{0, 1, 2}); st != StatusOK || detail != "" || err != nil {
		t.Errorf("DecodeError(OK payload) = (%v, %q, %v)", st, detail, err)
	}
	for _, p := range [][]byte{nil, {byte(maxStatus) + 1, 0, 0, 0, 0}} {
		if _, _, err := DecodeError(p); !errors.Is(err, ErrMalformed) {
			t.Errorf("DecodeError(% x) err = %v, want ErrMalformed", p, err)
		}
	}
}
