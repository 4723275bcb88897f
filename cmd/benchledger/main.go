// Command benchledger appends perfbench results to the append-only ledger
// BENCH.json: one record per end-to-end metric, holding the median and
// interquartile range of that metric over several runs of one workload at
// one revision, with the host the runs came from.
//
// It reads the standard output of the runs — each run's "# host:" line and
// its final JSON result line — from the files named on the command line,
// or from standard input. A run whose answers were wrong (correct=false)
// or whose operations failed (failed>0) is refused, with the whole input:
// the ledger holds only measurements of working code. The records already
// in the ledger are never rewritten; new ones are added at the end.
//
// Usage, from the repository root:
//
//	for i in 1 2 3 4 5; do
//		bash perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
//	done > runs.txt
//	go run ./cmd/benchledger -workload serve runs.txt
//
// `make bench-ledger WORKLOAD=serve` does both steps. The revision defaults
// to the short hash of HEAD, and appending refuses a working tree with
// changes to tracked files other than BENCH.json, since no revision names
// what such runs measured; runs saved from elsewhere name theirs with -rev.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// Record is one ledger entry: the median and interquartile range of one
// metric over N runs of one workload at one revision on one host.
type Record struct {
	Rev      string  `json:"rev"`
	Host     string  `json:"host"`
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Median   float64 `json:"median"`
	IQR      float64 `json:"iqr"`
	N        int     `json:"n"`
}

// ledgerFile is the ledger, at the repository root.
const ledgerFile = "BENCH.json"

// result is the part of perfbench's final JSON line the ledger reads.
type result struct {
	Correct bool  `json:"correct"`
	Failed  int64 `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload the runs measured (kernel, serve, shard or solve)")
	rev := flag.String("rev", "", "revision the runs measured (default: HEAD's short hash; the tree must then be clean)")
	flag.Parse()
	if err := run(ledgerFile, *workload, *rev, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchledger:", err)
		os.Exit(1)
	}
}

func run(ledger, workload, rev string, files []string) error {
	if workload == "" {
		return errors.New("-workload is required")
	}
	if rev == "" {
		var err error
		if rev, err = gitRev(); err != nil {
			return err
		}
	}
	var in io.Reader = os.Stdin
	if len(files) > 0 {
		var rs []io.Reader
		for _, name := range files {
			f, err := os.Open(name)
			if err != nil {
				return err
			}
			defer f.Close()
			rs = append(rs, f)
		}
		in = io.MultiReader(rs...)
	}
	host, runs, err := parseRuns(in)
	if err != nil {
		return err
	}
	recs, err := readLedger(ledger)
	if err != nil {
		return err
	}
	recs = append(recs, summarize(rev, host, workload, runs)...)
	return writeLedger(ledger, recs)
}

// gitRev names the checkout: HEAD's short hash. A working tree whose
// tracked files differ from HEAD, the ledger aside, has no such name.
func gitRev() (string, error) {
	head, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "", fmt.Errorf("git rev-parse: %w (pass -rev)", err)
	}
	rev := strings.TrimSpace(string(head))
	status, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no", "--", ".", ":!"+ledgerFile).Output()
	if err != nil {
		return "", fmt.Errorf("git status: %w (pass -rev)", err)
	}
	if len(bytes.TrimSpace(status)) > 0 {
		return "", fmt.Errorf("the working tree has changes on top of %s: commit them, or pass -rev", rev)
	}
	return rev, nil
}

// parseRuns reads the concatenated output of perfbench runs: every run's
// "# host:" line must agree, and every JSON line is one run's result, which
// must be correct and without failed operations.
func parseRuns(r io.Reader) (string, []result, error) {
	var host string
	var runs []result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "# host:"):
			h := strings.TrimSpace(strings.TrimPrefix(line, "# host:"))
			if host != "" && h != host {
				return "", nil, fmt.Errorf("runs from two hosts: %q and %q", host, h)
			}
			host = h
		case strings.HasPrefix(line, "{"):
			var res result
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				return "", nil, fmt.Errorf("result line: %w", err)
			}
			if !res.Correct || res.Failed > 0 {
				return "", nil, fmt.Errorf("run %d: correct=%v failed=%d; only runs of working code are recorded", len(runs)+1, res.Correct, res.Failed)
			}
			runs = append(runs, res)
		}
	}
	if err := sc.Err(); err != nil {
		return "", nil, err
	}
	if len(runs) == 0 {
		return "", nil, errors.New("no perfbench result lines in the input")
	}
	if host == "" {
		return "", nil, errors.New("no \"# host:\" line in the input")
	}
	return host, runs, nil
}

// summarize turns the runs into one record per metric, in metric order.
// A metric some run lacks is summarized over the runs that have it.
func summarize(rev, host, workload string, runs []result) []Record {
	values := map[string][]float64{}
	for _, r := range runs {
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	recs := make([]Record, 0, len(names))
	for _, name := range names {
		v := values[name]
		sort.Float64s(v)
		recs = append(recs, Record{
			Rev: rev, Host: host, Workload: workload, Metric: name,
			Median: quantile(v, 0.5), IQR: quantile(v, 0.75) - quantile(v, 0.25), N: len(v),
		})
	}
	return recs
}

// quantile returns the q-quantile of the sorted values, interpolating
// linearly between the two nearest ranks.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// readLedger returns the ledger's records; a missing file is an empty
// ledger.
func readLedger(path string) ([]Record, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var recs []Record
	if err := json.Unmarshal(b, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// writeLedger writes the records as a JSON array, one record per line, so
// that a diff of an append shows just the new records.
func writeLedger(path string, recs []Record) error {
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		buf.WriteString("  ")
		buf.Write(line)
		if i < len(recs)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
