package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. Add/Inc are single
// atomic adds — safe on the hot path. A nil *Counter is valid and
// counts nothing.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindCounterFunc
	kindGaugeFunc
	kindHist
)

type metric struct {
	name string // full series name, may carry {label="v"} pairs
	base string // name up to the first '{' — HELP/TYPE are per base
	help string
	kind metricKind

	counter *Counter
	fn      func() float64
	hist    *Hist
}

func (m *metric) value() float64 {
	switch m.kind {
	case kindCounter:
		return float64(m.counter.Load())
	case kindCounterFunc, kindGaugeFunc:
		return m.fn()
	}
	return 0
}

// Registry holds a node's metrics and renders them as Prometheus text
// exposition (for /metrics and scrapers).
// Registration is synchronized and expected at startup; reads of
// registered metrics are lock-free. Registries are instances, not
// globals, so an in-process bench harness can give each node its own.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

func (r *Registry) register(m *metric) {
	if i := strings.IndexByte(m.name, '{'); i >= 0 {
		m.base = m.name[:i]
	} else {
		m.base = m.name
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.name]; dup {
		panic("obs: duplicate metric " + m.name)
	}
	r.byName[m.name] = m
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a counter. The name may carry label
// pairs (`eh_frames_total{op="get"}`); HELP/TYPE are emitted once per
// base name, with the help text of the first registration.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// CounterFunc registers a counter whose value is read from fn at render
// time — for pre-existing atomics (server op counts, WAL record counts)
// that should appear on /metrics without double bookkeeping. fn must be
// monotonic and safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(&metric{name: name, help: help, kind: kindCounterFunc,
		fn: func() float64 { return float64(fn()) }})
}

// GaugeFunc registers a gauge read from fn at render time (connection
// counts, LSN positions, staleness, boolean states as 0/1).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: kindGaugeFunc, fn: fn})
}

// Hist registers and returns a striped histogram rendered as a
// Prometheus histogram. Histogram names must be label-free.
func (r *Registry) Hist(name, help string) *Hist {
	if strings.IndexByte(name, '{') >= 0 {
		panic("obs: histogram names must not carry labels: " + name)
	}
	h := &Hist{}
	r.register(&metric{name: name, help: help, kind: kindHist, hist: h})
	return h
}

// snapshotMetrics copies the registration list so rendering doesn't hold
// the lock while reading values.
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metric, len(r.metrics))
	copy(out, r.metrics)
	return out
}

// WritePrometheus renders the whole registry in Prometheus text
// exposition format. Histograms emit cumulative `_bucket{le="..."}`
// lines for populated buckets only (bounds are the HDR bucket uppers in
// nanoseconds) plus `+Inf`, `_sum`, and `_count` — full-resolution
// cumulative buckets, so two scrapes can be subtracted to recover
// windowed percentiles (see ParseHists/Delta).
func (r *Registry) WritePrometheus(w io.Writer) error {
	metrics := r.snapshotMetrics()
	var lastBase string
	for _, m := range metrics {
		if m.base != lastBase {
			lastBase = m.base
			typ := "counter"
			switch m.kind {
			case kindGaugeFunc:
				typ = "gauge"
			case kindHist:
				typ = "histogram"
			}
			if m.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.base, m.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.base, typ); err != nil {
				return err
			}
		}
		if m.kind == kindHist {
			if err := writePromHist(w, m.name, m.hist.Snapshot()); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", m.name, formatPromValue(m.value())); err != nil {
			return err
		}
	}
	return nil
}

func writePromHist(w io.Writer, name string, h HDR) error {
	var cum uint64
	for b := 0; b < hdrSize; b++ {
		n := h.buckets[b]
		if n == 0 {
			continue
		}
		cum += n
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, hdrUpper(b), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %d\n", name, h.sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, h.count)
	return err
}

// formatPromValue prints integers without an exponent and everything
// else in Go's shortest-roundtrip form.
func formatPromValue(v float64) string {
	if v == float64(uint64(v)) && v >= 0 {
		return fmt.Sprintf("%d", uint64(v))
	}
	return fmt.Sprintf("%g", v)
}
