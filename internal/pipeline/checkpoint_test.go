package pipeline

import (
	"bytes"
	"errors"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/elab"
	"repro/internal/models"
)

// tracedCheckpoint is a hand-built checkpoint exercising every field:
// a plain completed point and one with an escalation trace.
func tracedCheckpoint() *checkpoint {
	return &checkpoint{
		hash:      0xdeadbeefcafe,
		numPoints: 5,
		completed: map[int]*Phase2Report{
			0: {Values: map[string]float64{"util": 0.5, "power": 1.25}},
			3: {
				Values: map[string]float64{"util": 0.375},
				Trace: &ctmc.SolveTrace{Attempts: []ctmc.SolveAttempt{
					{Rung: 0, Action: "forced-nonconvergence", Sweep: ctmc.SweepGaussSeidel,
						MaxIterations: 100, Iterations: 100, Residual: 0.5},
					{Rung: 1, Action: "raise-max-iterations", Sweep: ctmc.SweepGaussSeidel,
						MaxIterations: 400, Iterations: 400, Residual: 0.25},
					{Rung: 2, Action: "multilevel", Sweep: ctmc.SweepMultilevel,
						MaxIterations: 400, Converged: true, Iterations: 68, Residual: 1e-13, Cycles: 8},
				}},
			},
		},
	}
}

// shellReport rebuilds a bare report around decoded values.
func shellReport(values map[string]float64) *Phase2Report { return &Phase2Report{Values: values} }

// TestCheckpointEncodeDecodeRoundTrip pins the binary format: every field
// — values, traces, flags — survives a round trip exactly.
func TestCheckpointEncodeDecodeRoundTrip(t *testing.T) {
	orig := tracedCheckpoint()
	report := shellReport
	got, err := decodeCheckpoint(encodeCheckpoint(orig), report)
	if err != nil {
		t.Fatal(err)
	}
	if got.hash != orig.hash || got.numPoints != orig.numPoints {
		t.Errorf("header changed: %x/%d vs %x/%d", got.hash, got.numPoints, orig.hash, orig.numPoints)
	}
	if !reflect.DeepEqual(got.completed, orig.completed) {
		t.Errorf("completed set changed:\n got %+v\n want %+v", got.completed, orig.completed)
	}
	// Determinism of the encoding itself (sorted maps): same content, same
	// bytes.
	a, b := encodeCheckpoint(orig), encodeCheckpoint(orig)
	if !reflect.DeepEqual(a, b) {
		t.Error("encoding is not deterministic")
	}
	// Truncation at any point must be caught.
	enc := encodeCheckpoint(orig)
	if _, err := decodeCheckpoint(enc[:len(enc)-3], report); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("truncated checkpoint decoded: %v", err)
	}
	if _, err := decodeCheckpoint([]byte("not a checkpoint"), report); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("garbage decoded: %v", err)
	}
}

// TestDecodeCheckpointRejectsOldVersions pins the version guard: files of
// earlier formats — version 1 stored a damping factor where later
// versions store the cycle count, version 2 a warm-start anchor vector
// and flag this format dropped — are refused with ErrCheckpointVersion
// and a message naming both versions, even behind a valid checksum, and
// never as a generic corruption.
func TestDecodeCheckpointRejectsOldVersions(t *testing.T) {
	enc := encodeCheckpoint(tracedCheckpoint())
	for _, magic := range []string{"DPMCKPT1", "DPMCKPT2"} {
		old := withChecksum(append([]byte(magic), enc[len(ckMagic):len(enc)-8]...))
		_, err := decodeCheckpoint(old, shellReport)
		if !errors.Is(err, ErrCheckpointVersion) {
			t.Fatalf("%s: want ErrCheckpointVersion, got %v", magic, err)
		}
		if errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("%s: a version mismatch must not report corruption: %v", magic, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "'"+magic[len(magic)-1:]+"'") || !strings.Contains(msg, "'3'") {
			t.Errorf("%s: message %q should name the file's and the reader's versions", magic, msg)
		}
	}
}

// TestSweepResumeRejectsOldVersion checks the version guard end to end: a
// resumed sweep handed a version-2 checkpoint with its own structural hash
// fails with a decode *CheckpointError that unwraps to
// ErrCheckpointVersion, instead of resuming or silently starting over.
func TestSweepResumeRejectsOldVersion(t *testing.T) {
	p := models.DefaultRPCParams()
	p.ParametricTimeout = true
	a, err := models.BuildRPCRevised(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := elab.Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	points := [][]float64{{1 / 0.5}, {1 / 5.0}}
	run := func(resume bool) error {
		s := NewSession(Spec{Model: m, Measures: models.RPCMeasures(p)}, Config{})
		_, err := s.SweepCheckpointed(points, &CheckpointOptions{Path: path, Every: 1, Resume: resume})
		return err
	}
	if err := run(false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v2 := withChecksum(append([]byte("DPMCKPT2"), data[len(ckMagic):len(data)-8]...))
	if err := os.WriteFile(path, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(true)
	var cke *CheckpointError
	if !errors.As(err, &cke) || cke.Op != "decode" || !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("version-2 checkpoint: want a decode *CheckpointError wrapping ErrCheckpointVersion, got %v", err)
	}
}

// withChecksum returns body followed by its FNV-64a tail, the framing
// decodeCheckpoint verifies before parsing.
func withChecksum(body []byte) []byte {
	sum := fnv.New64a()
	sum.Write(body)
	return ckU64(append([]byte(nil), body...), sum.Sum64())
}

// oneAttemptCountCheckpoint is a 44-byte checkpoint with a valid checksum
// holding one completed point (index idx of numPoints) whose trace claims
// the given number of attempts.
func oneAttemptCountCheckpoint(numPoints, idx, attempts uint32) []byte {
	b := append([]byte(nil), ckMagic...)
	b = ckU64(b, 0)         // structural hash
	b = ckU32(b, numPoints) // points in the sweep
	b = ckU32(b, 1)         // completed points
	b = ckU32(b, idx)       // completed index
	b = ckU32(b, 0)         // measure values
	b = ckU32(b, attempts)  // trace attempts
	return withChecksum(b)
}

// TestDecodeCheckpointBoundsCounts is the regression for a corrupt count
// sizing an allocation: a 44-byte file whose checksum is valid but whose
// attempt count is 0xFFFFFFF0 used to make a slice of that capacity and
// kill the process. It must be rejected as corrupt, as must a completed
// index outside the sweep.
func TestDecodeCheckpointBoundsCounts(t *testing.T) {
	data := oneAttemptCountCheckpoint(1, 0, 0xFFFFFFF0)
	if len(data) != 44 {
		t.Fatalf("fixture is %d bytes, want 44", len(data))
	}
	if _, err := decodeCheckpoint(data, shellReport); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("huge attempt count: want ErrCheckpointCorrupt, got %v", err)
	}
	if _, err := decodeCheckpoint(oneAttemptCountCheckpoint(1, 0, 0), shellReport); err != nil {
		t.Errorf("well-formed one-point checkpoint rejected: %v", err)
	}
	if _, err := decodeCheckpoint(oneAttemptCountCheckpoint(1, 1, 0), shellReport); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("completed index 1 of 1 point: want ErrCheckpointCorrupt, got %v", err)
	}
}

// rpcSweepCheckpoint runs a 3-point Fig. 3 rpc timeout sweep with
// checkpointing and returns the file it wrote.
func rpcSweepCheckpoint(f *testing.F) []byte {
	f.Helper()
	p := models.DefaultRPCParams()
	p.ParametricTimeout = true
	a, err := models.BuildRPCRevised(p)
	if err != nil {
		f.Fatal(err)
	}
	m, err := elab.Elaborate(a)
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "sweep.ckpt")
	s := NewSession(Spec{Model: m, Measures: models.RPCMeasures(p)}, Config{})
	points := [][]float64{{1 / 0.5}, {1 / 5.0}, {1 / 25.0}}
	if _, err := s.SweepCheckpointed(points, &CheckpointOptions{Path: path, Every: 1}); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzDecodeCheckpoint feeds the decoder arbitrary bodies behind a valid
// checksum, so the fuzzer reaches the parser instead of stalling on the
// FNV tail. A decode must never panic; one that succeeds holds only
// completed indices below numPoints and re-encodes to the same bytes.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Add(rpcSweepCheckpoint(f))
	f.Add(oneAttemptCountCheckpoint(1, 0, 0xFFFFFFF0))
	f.Add(encodeCheckpoint(tracedCheckpoint()))
	enc := encodeCheckpoint(tracedCheckpoint())
	f.Add(withChecksum(append([]byte("DPMCKPT2"), enc[len(ckMagic):len(enc)-8]...)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 8 {
			data = withChecksum(data[:len(data)-8])
		}
		c, err := decodeCheckpoint(data, shellReport)
		if err != nil {
			if !errors.Is(err, ErrCheckpointCorrupt) && !errors.Is(err, ErrCheckpointVersion) {
				t.Fatalf("decode failed with %v, want ErrCheckpointCorrupt or ErrCheckpointVersion", err)
			}
			return
		}
		for i := range c.completed {
			if i < 0 || i >= c.numPoints {
				t.Fatalf("completed index %d outside %d points", i, c.numPoints)
			}
		}
		if re := encodeCheckpoint(c); !bytes.Equal(re, data) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", re, data)
		}
	})
}
