package client

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"sketchsp/internal/core"
	"sketchsp/internal/sparse"
	"sketchsp/internal/wire"
)

// lateReader is a RoundTripper that fails every request at once, the way
// a transport error does, and reads and closes the body only afterwards,
// as net/http's write loop may after RoundTrip has returned.
type lateReader struct {
	want map[int64][]byte // the frame each body must hold, by length
	wg   sync.WaitGroup
	mu   sync.Mutex
	bad  int
}

func (rt *lateReader) RoundTrip(req *http.Request) (*http.Response, error) {
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		time.Sleep(time.Millisecond)
		got, err := io.ReadAll(req.Body)
		req.Body.Close()
		if want := rt.want[req.ContentLength]; err != nil || !bytes.Equal(got, want) {
			rt.mu.Lock()
			rt.bad++
			rt.mu.Unlock()
		}
	}()
	return nil, errors.New("connection reset by peer")
}

// TestRequestFrameOutlivesDo pins the pooled request frame's lifetime: a
// frame goes back to the pool when net/http closes the body, not when Do
// returns. Four callers, each cycling through four matrices, retry
// requests whose bodies are still read after each attempt has failed; had
// a frame been recycled at Do's return, a late read would see another
// request's bytes.
func TestRequestFrameOutlivesDo(t *testing.T) {
	opts := core.Options{Seed: 4}
	rt := &lateReader{want: map[int64][]byte{}}
	mats := make([]*sparse.CSC, 4)
	for k := range mats {
		mats[k] = sparse.RandomUniform(60+10*k, 20+5*k, 0.2, int64(k))
		frame, err := wire.AppendRequestFrame(nil, 8, opts, mats[k])
		if err != nil {
			t.Fatal(err)
		}
		rt.want[int64(len(frame))] = frame
	}
	c := New("http://worker.invalid", Config{MaxRetries: 2, BaseBackoff: time.Microsecond, HTTPClient: &http.Client{Transport: rt}})
	var wg sync.WaitGroup
	for k := range mats {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, _, err := c.Sketch(context.Background(), mats[(k+i)%len(mats)], 8, opts); err == nil {
					t.Error("a failing transport answered a sketch")
					return
				}
			}
		}(k)
	}
	wg.Wait()
	rt.wg.Wait()
	if rt.bad != 0 {
		t.Errorf("%d request bodies read after Do returned held other bytes than their frame", rt.bad)
	}
}
