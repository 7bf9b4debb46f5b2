package pipeline

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/elab"
	"repro/internal/models"
)

// sampleKey and sampleReport are a hand-built store entry with values in
// unsorted map order.
var sampleKey = ResultKey{Model: strings.Repeat("ab", 32), Point: encodePoint([]float64{0.2})}

func sampleReport() *Phase2Report {
	return &Phase2Report{
		Values: map[string]float64{"util": 0.5, "power": 1.25},
		States: 546, Tangible: 48, Vanishing: 498,
	}
}

// TestCheckpointEncodeDecodeRoundTrip pins the store record format: a
// record's key, values and sizes survive a round trip exactly, the
// encoding is deterministic, a cut record is torn and never decodes, and
// a store file reopened with resume serves what was put into it.
func TestCheckpointEncodeDecodeRoundTrip(t *testing.T) {
	enc := encodeRecord(sampleKey, sampleReport())
	key, rep, n, err := decodeRecord(append(enc, 0xAA))
	if err != nil {
		t.Fatal(err)
	}
	if key != sampleKey || n != len(enc) || !reflect.DeepEqual(rep, sampleReport()) {
		t.Errorf("round trip changed the record: %+v %+v %d, want %+v %+v %d", key, rep, n, sampleKey, sampleReport(), len(enc))
	}
	if !bytes.Equal(enc, encodeRecord(sampleKey, sampleReport())) {
		t.Error("encoding is not deterministic")
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, _, _, err := decodeRecord(enc[:cut]); !errors.Is(err, errTorn) {
			t.Fatalf("record cut at %d of %d bytes: want errTorn, got %v", cut, len(enc), err)
		}
	}

	path := filepath.Join(t.TempDir(), "s.store")
	s, err := OpenFileStore(path, false)
	if err != nil {
		t.Fatal(err)
	}
	withTrace := sampleReport()
	withTrace.Trace = &ctmc.SolveTrace{Attempts: []ctmc.SolveAttempt{{Iterations: 26}}}
	other := ResultKey{Model: sampleKey.Model, Point: "default"}
	for _, k := range []ResultKey{sampleKey, other, sampleKey} {
		if err := s.Put(k, withTrace); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := s.Get(sampleKey); !reflect.DeepEqual(got, sampleReport()) {
		t.Errorf("a stored report keeps its trace in memory: %+v", got)
	}
	s.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(storeMagic) + len(enc) + len(encodeRecord(other, sampleReport())); len(data) != want {
		t.Errorf("store file holds %d bytes, want %d: one header and one record per new key", len(data), want)
	}
	s, err = OpenFileStore(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, k := range []ResultKey{sampleKey, other} {
		if got, ok := s.Get(k); !ok || !reflect.DeepEqual(got, sampleReport()) {
			t.Errorf("reloaded %q: %+v, %t", k.Point, got, ok)
		}
	}
}

// TestFileStoreAppendFailure checks that a failed append fails that Put
// and every later one, so nothing is appended behind the torn record it
// may have left.
func TestFileStoreAppendFailure(t *testing.T) {
	s, err := OpenFileStore(filepath.Join(t.TempDir(), "s.store"), false)
	if err != nil {
		t.Fatal(err)
	}
	s.f.Close()
	for _, k := range []ResultKey{sampleKey, {Model: sampleKey.Model, Point: "default"}} {
		if err := s.Put(k, sampleReport()); !errors.Is(err, os.ErrClosed) {
			t.Errorf("Put on a closed file: want the append's error, got %v", err)
		}
	}
	if _, ok := s.Get(sampleKey); ok {
		t.Error("a report whose append failed is served")
	}
}

// TestStoreNeedsBuiltDescription checks that a spec that supplies a
// pre-elaborated Model, which cannot be formatted into a store key,
// refuses a store instead of sharing entries with every other model.
func TestStoreNeedsBuiltDescription(t *testing.T) {
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
	s := NewSession(Spec{Model: m, Measures: models.RPCMeasures(p)}, Config{Store: NewMemoryStore()})
	if _, err := s.Phase2(); err == nil || !strings.Contains(err.Error(), "pre-elaborated Model") {
		t.Errorf("Phase2: want the store to be refused, got %v", err)
	}
	if _, err := s.Sweep([][]float64{{1 / 5.0}}); err == nil || !strings.Contains(err.Error(), "pre-elaborated Model") {
		t.Errorf("Sweep: want the store to be refused, got %v", err)
	}
}

// withVersion returns a store file of the given version byte holding
// the sample record.
func withVersion(v byte) []byte {
	return append([]byte(storeFamily+string(v)), encodeRecord(sampleKey, sampleReport())...)
}

// TestDecodeCheckpointRejectsOldVersions pins the version guard: files of
// versions 1 to 5 — the sweep checkpoint format this store replaced —
// of version 6, whose keys hashed per-spec generation options, and of
// version 7, whose values plain Gauss-Seidel solved, are refused with
// ErrStoreVersion and a message naming both versions, even when their
// records are well formed, and never as a corruption or as a file that
// is not a store.
func TestDecodeCheckpointRejectsOldVersions(t *testing.T) {
	for v := byte('1'); v <= '7'; v++ {
		_, err := loadStore(withVersion(v))
		if !errors.Is(err, ErrStoreVersion) {
			t.Fatalf("version %c: want ErrStoreVersion, got %v", v, err)
		}
		if errors.Is(err, ErrStoreCorrupt) || errors.Is(err, ErrNotStore) {
			t.Errorf("version %c: a version mismatch must not report corruption: %v", v, err)
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("'%c'", v)) || !strings.Contains(msg, "'8'") {
			t.Errorf("version %c: message %q should name the file's and the reader's versions", v, msg)
		}
	}
	if _, err := loadStore(withVersion(storeVersion)); err != nil {
		t.Errorf("current version refused: %v", err)
	}
}

// loadStore loads an encoded store file into a FileStore with no file
// behind it.
func loadStore(data []byte) (*FileStore, error) {
	s := &FileStore{MemoryStore: NewMemoryStore()}
	_, err := s.load(data)
	return s, err
}

// TestSweepResumeRejectsOldVersion checks the version guard end to end:
// resuming from a store file a sweep wrote, relabeled as version 5,
// fails with an error that names the file and unwraps to
// ErrStoreVersion, instead of resuming or silently starting over; opened
// without resume, the same file is started afresh.
func TestSweepResumeRejectsOldVersion(t *testing.T) {
	p := models.DefaultRPCParams()
	p.ParametricTimeout = true
	a, err := models.BuildRPCRevised(p)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Arch: a, Measures: models.RPCMeasures(p)}
	path := filepath.Join(t.TempDir(), "sweep.store")
	s, err := OpenFileStore(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSession(spec, Config{Store: s}).Sweep([][]float64{{1 / 0.5}, {1 / 5.0}}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append([]byte("DPMCKPT5"), data[len(storeMagic):]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err = OpenFileStore(path, true); !errors.Is(err, ErrStoreVersion) || !strings.Contains(err.Error(), path) {
		t.Fatalf("version-5 store: want ErrStoreVersion naming %s, got %v", path, err)
	}
	s, err = OpenFileStore(path, false)
	if err != nil {
		t.Fatalf("version-5 store not started afresh without resume: %v", err)
	}
	s.Close()
	if data, _ := os.ReadFile(path); string(data) != storeMagic {
		t.Errorf("fresh store holds %q, want only the header", data)
	}
}

// frame wraps body as a record: its length before it and the checksum
// of both after it, the framing decodeRecord verifies before parsing.
func frame(body []byte) []byte {
	b := append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
	return binary.BigEndian.AppendUint64(b, checksum(b))
}

// recBody starts a record body: the sample key, three zero sizes and the
// count of values that follow.
func recBody(values uint32) []byte {
	b := appendStr(appendStr(nil, sampleKey.Model), sampleKey.Point)
	b = append(b, make([]byte, 24)...)
	return binary.BigEndian.AppendUint32(b, values)
}

// recValues appends zero-valued measures of the given names, in order.
func recValues(b []byte, names ...string) []byte {
	for _, name := range names {
		b = append(appendStr(b, name), make([]byte, 8)...)
	}
	return b
}

// badRecords are records that encodeRecord never writes, behind a valid
// checksum unless the defect is the checksum: counts and lengths larger
// than the bytes that follow, value names out of order, a truncated
// value, trailing bytes, a declared length beyond maxRecord, and a
// flipped checksum.
var badRecords = []struct {
	name string
	data []byte
}{
	{"huge value count", frame(recBody(0xFFFFFFF0))},
	{"huge key length", frame(binary.BigEndian.AppendUint32(nil, 0xFFFFFFF0))},
	{"descending names", frame(recValues(recBody(2), "util", "power"))},
	{"repeated name", frame(recValues(recBody(2), "util", "util"))},
	{"truncated value", frame(appendStr(recBody(1), "util"))},
	{"trailing byte", frame(append(recValues(recBody(1), "util"), 0))},
	{"missing sizes", frame(appendStr(appendStr(nil, sampleKey.Model), sampleKey.Point))},
	{"oversized record", binary.BigEndian.AppendUint32(nil, maxRecord+1)},
	{"bad checksum", flipLast(frame(recValues(recBody(1), "util")))},
}

func flipLast(b []byte) []byte {
	b[len(b)-1] ^= 1
	return b
}

// TestDecodeCheckpointBoundsCounts is the regression for a corrupt count
// sizing an allocation: a record whose checksum is valid but whose value
// count is 0xFFFFFFF0 must be refused as corrupt before it sizes
// anything, as must every other record in badRecords, while the
// well-formed record they are cut from decodes.
func TestDecodeCheckpointBoundsCounts(t *testing.T) {
	if _, _, _, err := decodeRecord(frame(recValues(recBody(2), "power", "util"))); err != nil {
		t.Errorf("well-formed record refused: %v", err)
	}
	for _, bad := range badRecords {
		if _, _, _, err := decodeRecord(bad.data); !errors.Is(err, ErrStoreCorrupt) {
			t.Errorf("%s: want ErrStoreCorrupt, got %v", bad.name, err)
		}
	}
}

// rpcSweepRecord runs a one-point Fig. 3 rpc timeout sweep on a store
// file and returns the record it appended.
func rpcSweepRecord(f *testing.F) []byte {
	f.Helper()
	p := models.DefaultRPCParams()
	p.ParametricTimeout = true
	path := filepath.Join(f.TempDir(), "sweep.store")
	s, err := OpenFileStore(path, false)
	if err != nil {
		f.Fatal(err)
	}
	a, err := models.BuildRPCRevised(p)
	if err != nil {
		f.Fatal(err)
	}
	spec := Spec{Arch: a, Measures: models.RPCMeasures(p)}
	if _, err := NewSession(spec, Config{Store: s}).Sweep([][]float64{{1 / 5.0}}); err != nil {
		f.Fatal(err)
	}
	s.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data[len(storeMagic):]
}

// FuzzDecodeCheckpoint fuzzes the store's record decoder, the parser of
// the file a resumed run trusts. Each input is decoded as it is, and
// framed as a record body behind a valid checksum, so the fuzzer reaches
// the parser instead of stalling on the checksum. A decode must never
// panic and must fail only as torn or corrupt; one that succeeds
// re-encodes to exactly the bytes it consumed.
func FuzzDecodeCheckpoint(f *testing.F) {
	real := rpcSweepRecord(f)
	f.Add(real)
	f.Add(real[4 : len(real)-8])
	enc := encodeRecord(sampleKey, sampleReport())
	f.Add(enc)
	f.Add(enc[4 : len(enc)-8])
	f.Add(enc[:len(enc)-1])
	f.Add([]byte{})
	for _, bad := range badRecords {
		f.Add(bad.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, rec := range [][]byte{data, frame(data)} {
			key, rep, n, err := decodeRecord(rec)
			if err != nil {
				if !errors.Is(err, ErrStoreCorrupt) && !errors.Is(err, errTorn) {
					t.Fatalf("decode failed with %v, want ErrStoreCorrupt or errTorn", err)
				}
				continue
			}
			if re := encodeRecord(key, rep); !bytes.Equal(re, rec[:n]) {
				t.Fatalf("re-encoding differs:\n got %x\nwant %x", re, rec[:n])
			}
		}
	})
}
