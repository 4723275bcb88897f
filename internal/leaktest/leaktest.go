// Package leaktest fails a package's tests when goroutines outlive them:
// the check that no plan worker pool, closer or pin-holding goroutine
// survives Close. It uses the standard library only.
//
// A package opts in with
//
//	func TestMain(m *testing.M) { leaktest.Main(m) }
package leaktest

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// Wait bounds how long Main lets exiting goroutines finish.
const Wait = 5 * time.Second

// Main runs the tests and exits. When they passed but more goroutines
// remain than were running before them, and the count does not fall back
// within Wait, it prints every goroutine's stack and exits 1.
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 && !settles(before, Wait) {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "leaktest: %d goroutines remain after the tests, %d before them:\n%s\n",
			runtime.NumGoroutine(), before, buf)
		code = 1
	}
	os.Exit(code)
}

// settles polls until at most n goroutines run, for at most wait.
func settles(n int, wait time.Duration) bool {
	deadline := time.Now().Add(wait)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}
