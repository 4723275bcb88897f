package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func perfbenchRun(host, throughput string) string {
	return perfbenchResult(host, `"correct":true,"attempted":10,"failed":0`, throughput)
}

func perfbenchResult(host, outcome, throughput string) string {
	return "# host: " + host + "\n# serve: set-up ...\n" +
		`{` + outcome + `,"metrics":{"throughput_ops_s":{"value":` + throughput +
		`,"unit":"1/s"},"success_ratio":{"value":1,"unit":"ratio"}}}` + "\n"
}

// TestLedgerAppends: the runs summarize to one record per metric (median
// and interquartile range by linear interpolation), a second append keeps
// the first records as they were, and runs with a wrong answer or a failed
// operation are refused without touching the ledger.
func TestLedgerAppends(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "BENCH.json")
	runs := filepath.Join(dir, "runs.txt")
	var in strings.Builder
	for _, v := range []string{"40", "10", "30", "20"} {
		in.WriteString(perfbenchRun("nproc=2", v))
	}
	if err := os.WriteFile(runs, []byte(in.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(ledger, "serve", "abc1234", []string{runs}); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(ledger, "serve", "def5678", []string{runs}); err != nil {
		t.Fatal(err)
	}
	recs, err := readLedger(ledger)
	if err != nil {
		t.Fatal(err)
	}
	want := Record{Rev: "abc1234", Host: "nproc=2", Workload: "serve", Metric: "success_ratio", Median: 1, N: 4}
	if len(recs) != 4 || recs[0] != want {
		t.Fatalf("records %+v, want 4 starting with %+v", recs, want)
	}
	if r := recs[1]; r.Metric != "throughput_ops_s" || r.Median != 25 || r.IQR != 15 || r.N != 4 {
		t.Errorf("throughput record %+v, want median 25, iqr 15, n 4", r)
	}
	if recs[2].Rev != "def5678" {
		t.Errorf("second append starts with rev %q", recs[2].Rev)
	}
	after, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	head := strings.TrimSuffix(string(first), "\n]\n")
	if !strings.HasPrefix(string(after), head) {
		t.Error("the second append rewrote the first records")
	}
	for _, outcome := range []string{
		`"correct":false,"attempted":10,"failed":0`,
		`"correct":true,"attempted":10,"failed":1`,
	} {
		bad := perfbenchRun("nproc=2", "10") + perfbenchResult("nproc=2", outcome, "20")
		if err := os.WriteFile(runs, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run(ledger, "serve", "0123abc", []string{runs}); err == nil {
			t.Errorf("runs with {%s} were recorded", outcome)
		}
		if now, err := os.ReadFile(ledger); err != nil || string(now) != string(after) {
			t.Errorf("refused runs {%s} changed the ledger (read err %v)", outcome, err)
		}
	}
}

// TestLedgerRejectsMixedHosts: the runs of one record come from one host.
func TestLedgerRejectsMixedHosts(t *testing.T) {
	in := perfbenchRun("nproc=2", "1") + perfbenchRun("nproc=4", "2")
	if _, _, err := parseRuns(strings.NewReader(in)); err == nil {
		t.Fatal("runs from two hosts were accepted")
	}
}
