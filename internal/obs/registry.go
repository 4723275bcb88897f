package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metricKind discriminates what a registered sample points at.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindFloatGauge
	kindHistogram
	kindValueHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc, kindFloatGauge:
		return "gauge"
	case kindHistogram, kindValueHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// sample is one exposition row (or histogram block): a metric handle plus
// its pre-rendered label set.
type sample struct {
	labels string // rendered `key="value",...` without braces; "" for none
	c      *Counter
	g      *Gauge
	fg     *FloatGauge
	fn     func() int64
	h      *Histogram
}

// family groups every sample sharing a metric name: one # HELP/# TYPE block
// per family, samples in registration order.
type family struct {
	name    string
	help    string
	kind    metricKind
	samples []sample
}

// Registry owns a fixed set of named metrics and renders them as Prometheus
// text exposition. Registration is cheap but takes a lock — do it at
// construction time, hold the returned handles, and hit those on the fast
// path. Re-registering the same (name, labels) pair returns the existing
// handle (so layers sharing a registry can be constructed independently);
// registering the same name with a different kind panics, since the
// exposition would be malformed.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// lookup finds or creates the family and returns the existing sample with
// these labels, if any.
func (r *Registry) lookup(name, help string, kind metricKind, labels string) (*family, *sample) {
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v, was %v", name, kind, f.kind))
	}
	for i := range f.samples {
		if f.samples[i].labels == labels {
			return f, &f.samples[i]
		}
	}
	return f, nil
}

// Counter registers (or returns the existing) unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.LabeledCounter(name, "", help)
}

// LabeledCounter registers a counter with a fixed label set, rendered
// verbatim into the sample line — e.g. labels `code="200"` yields
// name{code="200"}. The label string must be constant for the handle's
// lifetime; dynamic label values belong in separate handles.
func (r *Registry) LabeledCounter(name, labels, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, s := r.lookup(name, help, kindCounter, labels)
	if s != nil {
		return s.c
	}
	c := new(Counter)
	f.samples = append(f.samples, sample{labels: labels, c: c})
	return c
}

// Gauge registers (or returns the existing) unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, s := r.lookup(name, help, kindGauge, "")
	if s != nil {
		return s.g
	}
	g := new(Gauge)
	f.samples = append(f.samples, sample{g: g})
	return g
}

// FloatGauge registers (or returns the existing) unlabeled float gauge.
func (r *Registry) FloatGauge(name, help string) *FloatGauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, s := r.lookup(name, help, kindFloatGauge, "")
	if s != nil {
		return s.fg
	}
	g := new(FloatGauge)
	f.samples = append(f.samples, sample{fg: g})
	return g
}

// GaugeFunc registers a gauge whose value is computed at scrape time — for
// values that already live behind a lock elsewhere (cached plan count). fn
// must be safe to call from any goroutine; it runs while the registry lock
// is held, so it must not call back into this registry.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, s := r.lookup(name, help, kindGaugeFunc, "")
	if s != nil {
		s.fn = fn
		return
	}
	f.samples = append(f.samples, sample{fn: fn})
}

// Histogram registers (or returns the existing) unlabeled duration
// histogram with the shared log₂-microsecond bucket geometry.
func (r *Registry) Histogram(name, help string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, s := r.lookup(name, help, kindHistogram, "")
	if s != nil {
		return s.h
	}
	h := new(Histogram)
	f.samples = append(f.samples, sample{h: h})
	return h
}

// ValueHistogram registers (or returns the existing) unlabeled
// dimensionless histogram with the log₂ value-bucket geometry (le edges are
// powers of two, not seconds). Feed it through ObserveValue, never Observe;
// the two geometries are distinct registration kinds, so mixing them on one
// name panics at construction time rather than rendering nonsense edges.
func (r *Registry) ValueHistogram(name, help string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, s := r.lookup(name, help, kindValueHistogram, "")
	if s != nil {
		return s.h
	}
	h := new(Histogram)
	f.samples = append(f.samples, sample{h: h})
	return h
}

// WriteText renders the registry as Prometheus text exposition format
// version 0.0.4: one # HELP/# TYPE block per metric family in registration
// order, counters and gauges as single samples, histograms as cumulative
// _bucket{le=...} series plus _sum and _count. Scrape-path only — it
// allocates freely.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, f := range r.families {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for i := range f.samples {
			s := &f.samples[i]
			switch f.kind {
			case kindCounter:
				writeSample(bw, f.name, s.labels, formatInt(s.c.Value()))
			case kindGauge:
				writeSample(bw, f.name, s.labels, formatInt(s.g.Value()))
			case kindGaugeFunc:
				writeSample(bw, f.name, s.labels, formatInt(s.fn()))
			case kindFloatGauge:
				writeSample(bw, f.name, s.labels, strconv.FormatFloat(s.fg.Value(), 'g', -1, 64))
			case kindHistogram:
				writeHistogram(bw, f.name, s.h)
			case kindValueHistogram:
				writeValueHistogram(bw, f.name, s.h)
			}
		}
	}
	return bw.Flush()
}

// writeSample emits one `name{labels} value` line.
func writeSample(w *bufio.Writer, name, labels, value string) {
	w.WriteString(name)
	if labels != "" {
		w.WriteByte('{')
		w.WriteString(labels)
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(value)
	w.WriteByte('\n')
}

// writeHistogram emits the cumulative bucket series. The upper edges are
// BucketCeiling(i) in seconds; the last (overflow) bucket is folded into
// +Inf, as the exposition format requires.
func writeHistogram(w *bufio.Writer, name string, h *Histogram) {
	var b [HistBuckets]int64
	h.Snapshot(&b)
	// Count is read after the buckets so a concurrent Observe cannot make
	// count lag the cumulative bucket total (Observe bumps count first).
	var cum int64
	for i := 0; i < HistBuckets-1; i++ {
		cum += b[i]
		writeSample(w, name+"_bucket", `le="`+formatSeconds(BucketCeiling(i))+`"`, formatInt(cum))
	}
	cum += b[HistBuckets-1]
	writeSample(w, name+"_bucket", `le="+Inf"`, formatInt(cum))
	writeSample(w, name+"_sum", "", strconv.FormatFloat(float64(h.SumNS())/1e9, 'g', -1, 64))
	writeSample(w, name+"_count", "", formatInt(cum))
}

// writeValueHistogram mirrors writeHistogram for the dimensionless
// geometry: integer power-of-two le edges and an integer sum (the raw-unit
// total, e.g. summed batch sizes).
func writeValueHistogram(w *bufio.Writer, name string, h *Histogram) {
	var b [HistBuckets]int64
	h.Snapshot(&b)
	var cum int64
	for i := 0; i < HistBuckets-1; i++ {
		cum += b[i]
		writeSample(w, name+"_bucket", `le="`+formatInt(ValueBucketCeiling(i))+`"`, formatInt(cum))
	}
	cum += b[HistBuckets-1]
	writeSample(w, name+"_bucket", `le="+Inf"`, formatInt(cum))
	writeSample(w, name+"_sum", "", formatInt(h.SumNS()))
	writeSample(w, name+"_count", "", formatInt(cum))
}

func formatInt(v int64) string { return strconv.FormatInt(v, 10) }

// formatSeconds renders a bucket edge as seconds with no trailing zeros
// (1.024e-05 style), matching what PromQL le matchers expect.
func formatSeconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// ContentType is the Content-Type of text exposition format version 0.0.4.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler returns an http.Handler serving the registry (the /metrics
// endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		r.WriteText(w)
	})
}

// ParseText parses text exposition back into a flat sample map keyed by the
// sample name with its label set rendered verbatim (`name` or
// `name{key="value"}`). It understands exactly what WriteText emits — the
// shared dialect the scrape-reconciliation tests and perfbench's traced
// mode consume — not the full exposition grammar (no escaped label values,
// no timestamps).
func ParseText(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("obs: unparseable exposition line %q", line)
		}
		key, val := line[:sp], line[sp+1:]
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("obs: bad sample value in %q: %v", line, err)
		}
		out[key] = f
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// SortedKeys returns the sample keys of a ParseText result in sorted order —
// a convenience for deterministic test output and JSON folding.
func SortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
