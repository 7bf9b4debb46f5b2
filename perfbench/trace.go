package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// span is one timed call into a layer of the program, recorded by the
// benchmark around the public entry point it calls.
type span struct {
	// Name is "<module>.<what>", e.g. "lts.generate"; the per-layer metric
	// names derive from it.
	Name string `json:"name"`
	// Query is the id of the query the call served; -1 for set-up.
	Query int `json:"query"`
	// Pass is the index of the pass over the query list.
	Pass int `json:"pass"`
	// Parent is the index of the enclosing span, -1 for a root.
	Parent int `json:"parent"`
	// Start and End are offsets from the tracer's origin.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// CPU is the process's user+sys time spent inside the span and Alloc
	// the bytes the process allocated inside it.
	CPU   time.Duration `json:"cpu_ns"`
	Alloc uint64        `json:"alloc_bytes"`

	cpu0   time.Duration
	alloc0 uint64
}

// tracer keeps spans in memory. A disabled tracer records nothing: begin
// returns -1 without reading a clock, and end(-1) returns at once, so the
// untraced runs pay one branch per call site.
type tracer struct {
	on     bool
	origin time.Time
	pass   int
	spans  []span
	open   []int // stack of open span indices
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, origin: time.Now()}
}

// begin opens a span and returns its index, or -1 when tracing is off.
func (t *tracer) begin(name string, query int) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{
		Name: name, Query: query, Pass: t.pass, Parent: parent,
		cpu0: cpuTime(), alloc0: totalAlloc(),
	})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	t.spans[i].Start = time.Since(t.origin)
	return i
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	s := &t.spans[i]
	s.End = time.Since(t.origin)
	s.CPU = cpuTime() - s.cpu0
	s.Alloc = totalAlloc() - s.alloc0
	t.open = t.open[:len(t.open)-1]
}

// cpuTime is the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set size in bytes.
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports KiB
}

// totalAlloc is the cumulative heap allocation of the process in bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its child spans cover, together with its CPU time and
// allocations minus those of its children.
func selfTimes(spans []span) (wall, cpu []time.Duration, alloc []int64) {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	wall = make([]time.Duration, len(spans))
	cpu = make([]time.Duration, len(spans))
	alloc = make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(children[i]))
		cpu[i], alloc[i] = s.CPU, int64(s.Alloc)
		for _, c := range children[i] {
			ivs = append(ivs, [2]time.Duration{spans[c].Start, spans[c].End})
			cpu[i] -= spans[c].CPU
			alloc[i] -= int64(spans[c].Alloc)
		}
		wall[i] = s.End - s.Start - covered(ivs, s.Start, s.End)
	}
	return wall, cpu, alloc
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(ivs [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return f.Close()
}
