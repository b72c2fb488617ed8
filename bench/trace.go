package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Spans of a traced run. The benchmark records them around its own calls
// into each layer — workload → phase → request, replay → layer call, and
// LSM op — keeps them in memory, and writes them out when the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check.

// maxSpans bounds the request and op spans kept in memory; later ones are
// counted, not kept. Phase and replay spans are always kept.
const maxSpans = 200_000

type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"` // shared by the spans of one request; 0 outside requests
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

type tracer struct {
	epoch   time.Time
	mu      sync.Mutex
	nextID  uint64
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRef is an open span; end records it.
type spanRef struct {
	t     *tracer
	id    uint64
	par   uint64
	req   uint64
	name  string
	start time.Time
}

// start opens a span named name under parent (0 for a root).
func (t *tracer) start(name string, parent, req uint64) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return spanRef{t: t, id: id, par: parent, req: req, name: name, start: time.Now()}
}

// end closes the span now.
func (s spanRef) end() {
	if s.t == nil {
		return
	}
	s.t.add(span{ID: s.id, Parent: s.par, Req: s.req, Name: s.name,
		Start: s.start.Sub(s.t.epoch).Nanoseconds(), End: time.Since(s.t.epoch).Nanoseconds()})
}

// record adds a finished span whose times the caller measured itself.
func (t *tracer) record(name string, parent, req uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	t.add(span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.Req != 0 && len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summary prints count, total and self time per span name. A span's self
// time is its duration minus the part of it that its children cover;
// children of one parent may overlap (concurrent requests), so their
// intervals are merged first.
func (t *tracer) summary(w io.Writer) {
	children := map[uint64][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	type agg struct {
		count       int
		total, self int64
	}
	byName := map[string]*agg{}
	var names []string
	for _, s := range t.spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		d := s.End - s.Start
		a.count++
		a.total += d
		a.self += d - covered(children[s.ID], s.Start, s.End)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "span %-36s %9s %12s %12s\n", "name", "count", "total_ms", "self_ms")
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(w, "span %-36s %9d %12.3f %12.3f\n", n, a.count, float64(a.total)/1e6, float64(a.self)/1e6)
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, "span (dropped past the %d-span cap) %d\n", maxSpans, t.dropped)
	}
}

// covered returns how much of [lo, hi] the union of ivs covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}
