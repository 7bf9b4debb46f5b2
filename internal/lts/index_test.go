package lts_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/elab"
	"repro/internal/lts"
	"repro/internal/models"
)

// functionalShape is the functional streaming model at the given (AP,
// client) buffer capacities.
func functionalShape(ap, client int64) models.StreamingParams {
	p := models.DefaultStreamingParams()
	p.Mode = models.Functional
	p.APCapacity, p.ClientCapacity = ap, client
	return p
}

// functionalShapes are the twelve (AP, client) capacities the functional
// perfbench workload draws its streaming checks from, seeds 1 and 7
// included.
var functionalShapes = [][2]int64{
	{3, 6}, {6, 3}, {4, 5}, {5, 4}, {4, 6}, {6, 4},
	{5, 6}, {6, 5}, {4, 8}, {8, 4}, {5, 7}, {7, 5},
}

// TestDirectIndexMatchesHashIndex generates every unfolded fingerprint
// case (every spec, both paper models in both modes with their measures'
// predicates, the full 10×10 Markovian chain among them) and every
// functional streaming shape twice: with the direct state index an
// unfolded generation uses, and with the hash index. The two systems must
// be the same edge for edge, with the same digest, state-table bytes and
// description of every state.
func TestDirectIndexMatchesHashIndex(t *testing.T) {
	var cases []fingerprintCase
	for _, c := range fingerprintCases(t) {
		if c.opts(t).Fold == nil {
			cases = append(cases, c)
		}
	}
	for _, s := range functionalShapes {
		cases = append(cases, fingerprintCase{
			fmt.Sprintf("functional/%dx%d", s[0], s[1]), streamingModel(functionalShape(s[0], s[1])), plainOpts,
		})
	}
	for _, c := range cases {
		m, opts := c.model(t), c.opts(t)
		direct, err := lts.Generate(m, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		hash, err := lts.Generate(m, lts.WithHashIndexForTest(opts))
		if err != nil {
			t.Fatalf("%s, hash index: %v", c.name, err)
		}
		if d := lts.DiffSystemsForTest(direct, hash); d != "" {
			t.Errorf("%s: direct and hash index differ in the %s", c.name, d)
			continue
		}
		if dd, hd := ltsDigest(direct), ltsDigest(hash); dd != hd {
			t.Errorf("%s: digest %s with the direct index, %s with the hash index", c.name, dd, hd)
		}
		dm, _, _ := direct.MemStats()
		hm, _, _ := hash.MemStats()
		if dm != hm {
			t.Errorf("%s: state table of %d bytes with the direct index, %d with the hash index", c.name, dm, hm)
		}
		for s := range direct.NumStates {
			if dd, hd := direct.StateDesc(s), hash.StateDesc(s); dd != hd {
				t.Errorf("%s: state %d is %s with the direct index, %s with the hash index", c.name, s, dd, hd)
				break
			}
		}
	}
}

// generateAlloc returns the bytes one Generate call allocates
// (runtime.MemStats.TotalAlloc), the least over three calls, so that an
// allocation of the test runner's own goroutines does not count.
func generateAlloc(t *testing.T, m *elab.Model, opts lts.GenerateOptions) uint64 {
	t.Helper()
	least := uint64(0)
	for i := range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := lts.Generate(m, opts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; i == 0 || d < least {
			least = d
		}
	}
	return least
}

// TestDirectIndexAllocatesNoMore pins what the direct state index costs
// in bytes against the hash index it replaces in an unfolded generation.
// The direct table allocates its radices and strides, two words a
// position, beside its slot buffer; apart from that it must allocate no
// more on the rpc model (546 states, whose product of local-id ranges,
// 1,920 slots, outgrows the hash index's first table) and on the
// functional 7×5 streaming shape (16,632 states). The rpc model without
// DPM (perfbench's fig3-nodpm) is the known exception: its 380 states
// have a product of 1,536, so the direct buffer must reach 2,048 slots
// where the hash index keeps its first 1,024, and it may cost up to that
// 8 KB more.
func TestDirectIndexAllocatesNoMore(t *testing.T) {
	rpc := models.DefaultRPCParams()
	nodpm := rpc
	nodpm.WithDPM = false
	for _, c := range []struct {
		fingerprintCase
		excess uint64 // bytes beyond the digits the direct index may add
	}{
		{fingerprintCase{"rpc/markov", rpcModel(rpc), measureOpts(models.RPCMeasures(rpc))}, 0},
		{fingerprintCase{"rpc-nodpm/markov", rpcModel(nodpm), measureOpts(models.RPCMeasures(nodpm))}, 2048 * 4},
		{fingerprintCase{"functional/7x5", streamingModel(functionalShape(7, 5)), plainOpts}, 0},
	} {
		m, opts := c.model(t), c.opts(t)
		if _, err := lts.Generate(m, opts); err != nil { // warm the model
			t.Fatal(err)
		}
		// The digits, rounded up to the allocator's size class.
		digits := uint64(16 * m.NumInstances())
		direct, hash := generateAlloc(t, m, opts), generateAlloc(t, m, lts.WithHashIndexForTest(opts))
		t.Logf("%s: %d bytes with the direct index, %d with the hash index", c.name, direct, hash)
		if direct > hash+digits+c.excess {
			t.Errorf("%s: generation allocates %d bytes with the direct index, %d with the hash index (%d more allowed)",
				c.name, direct, hash, digits+c.excess)
		}
	}
}

// TestGenerateAllocBound bounds the bytes one unfolded generation of the
// functional 7×5 streaming shape (16,632 states) allocates. Its one rate
// leaves the CSR without a rate-id column, the row builder doubles its
// row starts and edge columns, and the state table stores its tuples in
// pages that never move. It allocates 1,969,704 bytes; a state table
// grown as one doubling slab allocated 2,278,768, and that, a third edge
// column or a return to append's 1.25× regrowth costs more than the
// margin left below the bound. A race build is skipped: instrumented code compiles the append of
// a make inside slices.Grow with a separate temporary, so it allocates
// about a third more.
func TestGenerateAllocBound(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("allocation counts of a race build are not the program's")
	}
	const bound = 2_100_000
	m := streamingModel(functionalShape(7, 5))(t)
	if _, err := lts.Generate(m, lts.GenerateOptions{}); err != nil { // warm the model
		t.Fatal(err)
	}
	got := generateAlloc(t, m, lts.GenerateOptions{})
	t.Logf("functional/7x5: generation allocates %d bytes", got)
	if got > bound {
		t.Errorf("functional/7x5: generation allocates %d bytes, more than %d", got, bound)
	}
}
