package sketchsp_test

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"sketchsp"
)

// runCmd builds and runs one of the repo's commands with `go run`.
func runCmd(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Env = os.Environ()
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestSpmmbenchTable1Integration(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	out := runCmd(t, "./cmd/spmmbench", "-table", "1", "-scale", "0.01")
	for _, want := range []string{"TABLE I", "mk-12", "mesh_deform", "cis-n4c6-b4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSpmmbenchFig5Integration(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	out := runCmd(t, "./cmd/spmmbench", "-fig", "5", "-scale", "0.01", "-spydir", dir)
	if !strings.Contains(out, "FIGURE 5") {
		t.Fatalf("missing figure header:\n%s", out)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 3 {
		t.Fatalf("expected 3 PGM files, got %d (%v)", len(entries), err)
	}
}

// TestSpmmbenchSkewIntegration runs the scheduler and sketch-family A/B at
// a tiny scale and checks the -json records, then that an unwritable -json
// path makes the command fail instead of exiting 0 after printing tables.
func TestSpmmbenchSkewIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "spmmbench")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/spmmbench").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	args := []string{"-skew", "-scale", "0.01", "-threads", "2", "-trials", "1", "-json"}
	path := filepath.Join(dir, "skew.json")
	if out, err := exec.Command(bin, append(args, path)...).CombinedOutput(); err != nil {
		t.Fatalf("spmmbench -skew: %v\n%s", err, out)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var records []struct {
		Name, Scheduler, Suite string
	}
	if err := json.Unmarshal(buf, &records); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, buf)
	}
	var sched, family int
	for _, r := range records {
		switch r.Suite {
		case "":
			sched++
		case "family":
			family++
		}
	}
	// 4 inputs × 3 schedulers, and 4 inputs × 4 sketch families.
	if sched != 12 || family != 16 || len(records) != 28 {
		t.Fatalf("got %d scheduler + %d family records of %d, want 12 + 16 of 28", sched, family, len(records))
	}

	bad := filepath.Join(dir, "missing", "skew.json")
	if out, err := exec.Command(bin, append(args, bad)...).CombinedOutput(); err == nil {
		t.Fatalf("spmmbench -skew -json %s exited 0:\n%s", bad, out)
	}
}

func TestLsqbenchTable8Integration(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	out := runCmd(t, "./cmd/lsqbench", "-table", "8", "-scale", "0.01")
	for _, want := range []string{"TABLE VIII", "rail2586", "landmark"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestAnalysisbenchModelIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	out := runCmd(t, "./cmd/analysisbench")
	for _, want := range []string{"roofline model", "Eq.(5)", "sqrt(M) headline"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSketchCLIIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	in := dir + "/a.mtx"
	outPath := dir + "/ahat.mtx"
	a := sketchsp.RandomUniform(300, 25, 0.1, 5)
	if err := sketchsp.WriteMatrixMarketFile(in, a); err != nil {
		t.Fatal(err)
	}
	out := runCmd(t, "./cmd/sketch", "-gamma", "3", "-dist", "pm1", "-seed", "9", in, outPath)
	if !strings.Contains(out, "sketched 300x25") {
		t.Fatalf("unexpected CLI output: %s", out)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "%%MatrixMarket matrix array real general\n75 25\n") {
		t.Fatalf("bad sketch file header: %.60s", data)
	}
	// Determinism end to end: the CLI must agree with the library.
	ahat, _, err := sketchsp.Sketch(a, 75, sketchsp.SketchOptions{
		Dist: sketchsp.Rademacher, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2+75*25 {
		t.Fatalf("sketch file has %d lines", len(lines))
	}
	first := strings.TrimSpace(lines[2])
	want := ahat.At(0, 0)
	var got float64
	if _, err := fmt.Sscan(first, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("CLI sketch[0,0] = %v, library says %v", got, want)
	}
}
