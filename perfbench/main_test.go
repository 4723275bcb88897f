package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the self-tests check the
// printed metrics against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkMetrics fails unless got holds exactly the named metrics with their
// units.
func checkMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	var names []string
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(got) != len(want) {
		t.Errorf("%s printed %d metrics, BENCHMARK.json lists %d: %v", what, len(got), len(want), names)
	}
	for n, u := range want {
		m, ok := got[n]
		if !ok {
			t.Errorf("%s: metric %s missing", what, n)
		} else if m.Unit != u {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, n, m.Unit, u)
		}
	}
}

// TestEveryWorkloadVerifiesAndPrintsTheListedMetrics runs each workload of
// BENCHMARK.json for a moment and checks it passes verification and prints
// exactly the end-to-end metrics listed there.
func TestEveryWorkloadVerifiesAndPrintsTheListedMetrics(t *testing.T) {
	spec := loadSpec(t)
	want := map[string]string{}
	for _, m := range spec.EndToEnd {
		want[m.Name] = m.Unit
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Errorf("workload %s is not implemented", sw.Name)
			continue
		}
		res, err := runUntraced(io.Discard, w, 1, 200*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		checkMetrics(t, w.name, res.Metrics, want)
	}
}

// TestTracedRunPrintsTheListedPerLayerMetrics checks the traced run prints
// exactly the per-layer metrics of BENCHMARK.json, with every workload's
// answers verified.
func TestTracedRunPrintsTheListedPerLayerMetrics(t *testing.T) {
	spec := loadSpec(t)
	want := map[string]string{}
	for _, m := range spec.PerLayer {
		want[m.Name] = m.Unit
	}
	res, err := runTraced(io.Discard, workloads[1], 1, 900*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("traced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	checkMetrics(t, "traced run", res.Metrics, want)
}

// TestCorruptedAnswerCountsAsFailure flips one bit of the second answer
// each workload returns and checks that exactly that operation counts as
// failed, whether it is caught in the loop or by solve's replay after it.
func TestCorruptedAnswerCountsAsFailure(t *testing.T) {
	for _, w := range workloads {
		inst, err := w.setup(setupConfig{seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var calls atomic.Int64
		do := inst.do
		inst.do = func(ctx context.Context, op any) (answer, error) {
			a, err := do(ctx, op)
			if calls.Add(1) == 2 && err == nil {
				a.data[0][0] = math.Float64frombits(math.Float64bits(a.data[0][0]) ^ 1)
			}
			return a, err
		}
		run := closedLoop(inst, 300*time.Millisecond)
		inst.close()
		if run.attempted < 2 || run.failed != 1 {
			t.Errorf("%s: %d operations, %d failed; want exactly the corrupted one to fail", w.name, run.attempted, run.failed)
		}
	}
}
