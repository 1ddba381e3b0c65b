package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// tracer keeps spans in memory and writes them out when the run ends. The
// spans are recorded by the benchmark around its calls into each layer;
// spans inside the program are a later change.
type tracer struct {
	t0    time.Time
	names []string
	index map[string]int32
	spans []span
}

// span is one timed interval: what ran, when (ns since the trace began),
// and the span that caused it (-1 for a root).
type span struct {
	name       int32
	parent     int32
	start, end int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), index: map[string]int32{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) nameID(name string) int32 {
	id, ok := t.index[name]
	if !ok {
		id = int32(len(t.names))
		t.names = append(t.names, name)
		t.index[name] = id
	}
	return id
}

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, parent int32) int32 {
	t.spans = append(t.spans, span{name: t.nameID(name), parent: parent, start: t.now()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) { t.spans[id].end = t.now() }

// add records a finished child span from timestamps the caller already took.
func (t *tracer) add(name int32, parent int32, start, end int64) {
	t.spans = append(t.spans, span{name: name, parent: parent, start: start, end: end})
}

// write stores the trace as {"names": [...], "spans": [[name, parent,
// start_ns, end_ns], ...]}; a span's id is its position in the list.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"names":[`)
	for i, n := range t.names {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	fmt.Fprint(w, `],"spans":[`)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "[%d,%d,%d,%d]", s.name, s.parent, s.start, s.end)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
