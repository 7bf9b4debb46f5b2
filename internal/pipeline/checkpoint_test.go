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

	"repro/internal/elab"
	"repro/internal/models"
)

// sampleCheckpoint is a hand-built checkpoint of two completed points of
// five, with values in unsorted map order.
func sampleCheckpoint() *checkpoint {
	return &checkpoint{
		hash:      0xdeadbeefcafe,
		numPoints: 5,
		completed: map[int]*Phase2Report{
			0: {Values: map[string]float64{"util": 0.5, "power": 1.25}},
			3: {Values: map[string]float64{"util": 0.375}},
		},
	}
}

// shellReport rebuilds a bare report around decoded values.
func shellReport(values map[string]float64) *Phase2Report { return &Phase2Report{Values: values} }

// TestCheckpointEncodeDecodeRoundTrip pins the binary format: the header
// and every completed point's values survive a round trip exactly.
func TestCheckpointEncodeDecodeRoundTrip(t *testing.T) {
	orig := sampleCheckpoint()
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
// earlier formats — version 1 stored a damping factor where versions 2
// and 3 store the cycle count, version 2 a warm-start anchor vector and
// flag, version 3 each attempt's scheme and cycle count, version 4 the
// attempt records this format dropped — are refused with
// ErrCheckpointVersion and a message naming both versions, even behind a
// valid checksum, and never as a generic corruption.
func TestDecodeCheckpointRejectsOldVersions(t *testing.T) {
	enc := encodeCheckpoint(sampleCheckpoint())
	for _, magic := range []string{"DPMCKPT1", "DPMCKPT2", "DPMCKPT3", "DPMCKPT4"} {
		old := withChecksum(append([]byte(magic), enc[len(ckMagic):len(enc)-8]...))
		_, err := decodeCheckpoint(old, shellReport)
		if !errors.Is(err, ErrCheckpointVersion) {
			t.Fatalf("%s: want ErrCheckpointVersion, got %v", magic, err)
		}
		if errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("%s: a version mismatch must not report corruption: %v", magic, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "'"+magic[len(magic)-1:]+"'") || !strings.Contains(msg, "'5'") {
			t.Errorf("%s: message %q should name the file's and the reader's versions", magic, msg)
		}
	}
}

// TestSweepResumeRejectsOldVersion checks the version guard end to end: a
// resumed sweep handed a version-4 checkpoint with its own structural hash
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
	v4 := withChecksum(append([]byte("DPMCKPT4"), data[len(ckMagic):len(data)-8]...))
	if err := os.WriteFile(path, v4, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(true)
	var cke *CheckpointError
	if !errors.As(err, &cke) || cke.Op != "decode" || !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("version-4 checkpoint: want a decode *CheckpointError wrapping ErrCheckpointVersion, got %v", err)
	}
}

// withChecksum returns body followed by its FNV-64a tail, the framing
// decodeCheckpoint verifies before parsing.
func withChecksum(body []byte) []byte {
	sum := fnv.New64a()
	sum.Write(body)
	return ckU64(append([]byte(nil), body...), sum.Sum64())
}

// ckBody starts a checkpoint body: the magic, a zero structural hash, the
// sweep's point count and the count of completed points that follow.
func ckBody(numPoints, completed uint32) []byte {
	b := append([]byte(nil), ckMagic...)
	b = ckU64(b, 0)
	b = ckU32(b, numPoints)
	return ckU32(b, completed)
}

// ckPoint appends a completed point record: its index and the given
// measure values, in the order given.
func ckPoint(b []byte, idx uint32, names ...string) []byte {
	b = ckU32(b, idx)
	b = ckU32(b, uint32(len(names)))
	for _, name := range names {
		b = ckStr(b, name)
		b = ckU64(b, 0)
	}
	return b
}

// hugeValueCount is a 40-byte checkpoint with a valid checksum holding
// one completed point that claims 0xFFFFFFF0 measure values.
func hugeValueCount() []byte {
	return withChecksum(ckU32(ckU32(ckBody(1, 1), 0), 0xFFFFFFF0))
}

// badCheckpoints are bodies behind a valid checksum that encodeCheckpoint
// never writes: counts larger than the bytes that follow, a completed
// index outside the sweep or out of order, value names out of order, a
// truncated value and trailing bytes.
var badCheckpoints = []struct {
	name string
	data []byte
}{
	{"huge value count", hugeValueCount()},
	{"huge point count", withChecksum(ckBody(1, 0xFFFFFFF0))},
	{"index beyond the sweep", withChecksum(ckPoint(ckBody(1, 1), 1))},
	{"repeated index", withChecksum(ckPoint(ckPoint(ckBody(2, 2), 0), 0))},
	{"descending names", withChecksum(ckPoint(ckBody(1, 1), 0, "util", "power"))},
	{"repeated name", withChecksum(ckPoint(ckBody(1, 1), 0, "util", "util"))},
	{"truncated value", withChecksum(ckStr(ckU32(ckU32(ckBody(1, 1), 0), 1), "util"))},
	{"trailing byte", withChecksum(append(ckPoint(ckBody(1, 1), 0), 0))},
}

// TestDecodeCheckpointBoundsCounts is the regression for a corrupt count
// sizing an allocation: a 40-byte file whose checksum is valid but whose
// value count is 0xFFFFFFF0 must be rejected as corrupt before it sizes
// anything, as must every other body in badCheckpoints, while the
// well-formed one-point file they are cut from decodes.
func TestDecodeCheckpointBoundsCounts(t *testing.T) {
	if n := len(hugeValueCount()); n != 40 {
		t.Fatalf("fixture is %d bytes, want 40", n)
	}
	if _, err := decodeCheckpoint(withChecksum(ckPoint(ckBody(1, 1), 0, "power", "util")), shellReport); err != nil {
		t.Errorf("well-formed one-point checkpoint rejected: %v", err)
	}
	for _, bad := range badCheckpoints {
		if _, err := decodeCheckpoint(bad.data, shellReport); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("%s: want ErrCheckpointCorrupt, got %v", bad.name, err)
		}
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
	enc := encodeCheckpoint(sampleCheckpoint())
	f.Add(enc)
	for _, magic := range []string{"DPMCKPT2", "DPMCKPT3", "DPMCKPT4"} {
		f.Add(withChecksum(append([]byte(magic), enc[len(ckMagic):len(enc)-8]...)))
	}
	for _, bad := range badCheckpoints {
		f.Add(bad.data)
	}
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
