package store

import (
	"testing"

	"sketchsp/internal/leaktest"
)

// TestMain fails the package when a goroutine outlives its tests.
func TestMain(m *testing.M) { leaktest.Main(m) }
