package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share trace; parent
// is the index of the causing span, or -1.
type span struct {
	name       string
	trace      uint64
	parent     int
	start, end time.Time
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing, so untraced runs pay one nil check per
// call site.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(name string, trace uint64, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name, trace, parent, start, end})
	return len(t.spans) - 1
}

// selfTimes returns each span name's total self time: its spans' durations
// minus the parts of those intervals covered by their child spans.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range t.spans {
		d := s.end.Sub(s.start)
		self[s.name] += d - t.covered(s, children[i])
	}
	return self
}

// covered is the length of the union of the child intervals, clipped to s.
func (t *tracer) covered(s span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(kids))
	for _, k := range kids {
		a, b := t.spans[k].start, t.spans[k].end
		if a.Before(s.start) {
			a = s.start
		}
		if b.After(s.end) {
			b = s.end
		}
		if b.After(a) {
			iv = append(iv, [2]time.Time{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curA, curB time.Time
	for i, x := range iv {
		if i == 0 || x[0].After(curB) {
			if i > 0 {
				total += curB.Sub(curA)
			}
			curA, curB = x[0], x[1]
		} else if x[1].After(curB) {
			curB = x[1]
		}
	}
	if len(iv) > 0 {
		total += curB.Sub(curA)
	}
	return total
}

// count returns how many spans carry name.
func (t *tracer) count(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.name == name {
			n++
		}
	}
	return n
}

// writeFile dumps the spans as tab-separated lines: name, trace, parent,
// start and end in nanoseconds since the first span.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var t0 time.Time
	if len(t.spans) > 0 {
		t0 = t.spans[0].start
	}
	fmt.Fprintln(w, "name\ttrace\tparent\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", s.name, s.trace, s.parent, s.start.Sub(t0), s.end.Sub(t0))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
