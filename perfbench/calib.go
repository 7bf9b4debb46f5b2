package main

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The machine the benchmark is sized for is shared, and other tenants' load
// switches it between a fast and a slow state that last minutes: every
// part of a run, set-up included, then takes about 1.4 times as long,
// which moves a run's times by more than any bound allows. So the
// benchmark also times a fixed kernel of its own, interleaved with the
// set-ups, and reports every end-to-end time scaled by calibRef over the
// kernel's median time in the run: the time the run would have taken with
// the machine in its fast state. The kernel is not program code, so no
// change to the program moves it.

// calibRef is the kernel's median time on the reference machine (2-core
// Intel Xeon, Go 1.24) in its fast state.
const calibRef = 2700 * time.Microsecond

// calibWords is the kernel's text length in words.
const calibWords = 12000

// calibrate runs the kernel once and returns a checksum of its result. The
// kernel does single-threaded, allocating work of a few milliseconds,
// like set-up: it prints a fixed pseudo-random text, splits it into words,
// counts them in a map and sorts the distinct words.
func calibrate() uint64 {
	r := rand.New(rand.NewSource(1))
	var b strings.Builder
	for range calibWords {
		b.WriteString("w")
		b.WriteString(strconv.Itoa(r.Intn(4000)))
		b.WriteByte(' ')
	}
	counts := map[string]int{}
	for _, w := range strings.Fields(b.String()) {
		counts[w]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	sum := uint64(len(keys))
	for i, k := range keys {
		sum = sum*31 + uint64(counts[k]*(i+1))
	}
	return sum
}
