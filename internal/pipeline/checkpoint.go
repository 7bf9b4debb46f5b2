package pipeline

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"sync"

	"repro/internal/faultinject"
)

// CheckpointOptions makes a sweep resumable: SweepCheckpointed
// periodically writes the completed point results to Path, and a later
// run with Resume set replays only the missing points. Because every
// point's result is a pure function of the chain and the point's rates —
// never of scheduling — a resumed sweep's reports are bit-identical to an
// uninterrupted run's.
type CheckpointOptions struct {
	// Path is the checkpoint file. The file is written atomically
	// (temp file + rename), so a crash mid-write never corrupts an
	// existing checkpoint.
	Path string
	// Every is the write cadence in completed points (default 8): after
	// every Every-th newly completed point the full completed set is
	// rewritten.
	Every int
	// Resume loads Path before solving and skips the points it already
	// holds. A missing file is not an error — the sweep simply starts
	// fresh — but a corrupt file, or one whose structural hash does not
	// match this sweep's model, points, measures and solver tolerance,
	// aborts with a *CheckpointError rather than silently recomputing or,
	// worse, resuming someone else's sweep.
	Resume bool
}

// CheckpointError reports a checkpoint operation failure.
type CheckpointError struct {
	// Op is the failed operation: "write", "load", or "decode".
	Op string
	// Path is the checkpoint file.
	Path string
	// Err is the cause (e.g. ErrCheckpointMismatch, ErrCheckpointCorrupt,
	// ErrCheckpointVersion, or an *os.PathError).
	Err error
}

// Error implements the error interface.
func (e *CheckpointError) Error() string {
	return fmt.Sprintf("pipeline: checkpoint %s %s: %v", e.Op, e.Path, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *CheckpointError) Unwrap() error { return e.Err }

// Checkpoint failure causes.
var (
	// ErrCheckpointMismatch reports a checkpoint whose structural hash
	// does not match the resuming sweep's model, point set, measures and
	// solver tolerance.
	ErrCheckpointMismatch = errors.New("checkpoint does not match this sweep")
	// ErrCheckpointCorrupt reports a truncated or checksum-failing
	// checkpoint file.
	ErrCheckpointCorrupt = errors.New("checkpoint file is corrupt")
	// ErrCheckpointVersion reports a checkpoint written in another
	// version of the format.
	ErrCheckpointVersion = errors.New("checkpoint format version is not supported")
)

// ckMagic identifies the checkpoint format: ckFamily plus a version byte.
// A format change bumps the version, and a reader rejects a file of any
// other version with ErrCheckpointVersion instead of misparsing it.
// Version 2 stored each solve attempt's multilevel cycle count in the
// eight bytes version 1 gave a damping factor; version 3 dropped the
// warm-start anchor vector and the warm-start attempt flag, since every
// sweep point solves cold; version 4 dropped each attempt's scheme and
// cycle count, since every attempt is a Gauss-Seidel solve; version 5
// drops the attempt records, since a solve is one attempt and a sweep
// report carries no trace.
const (
	ckFamily  = "DPMCKPT"
	ckVersion = '5'
	ckMagic   = ckFamily + string(ckVersion)
)

// checkpoint is the decoded content of a checkpoint file.
type checkpoint struct {
	hash      uint64
	numPoints int
	completed map[int]*Phase2Report
}

// --- binary encoding -----------------------------------------------------
//
// All integers are big-endian; floats are stored as their IEEE-754 bit
// patterns (math.Float64bits), so a round trip is exact. Map keys are
// sorted before encoding, so the same content always produces the same
// bytes. The file ends with an FNV-64a checksum of everything
// before it.

func ckU16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }

func ckU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func ckU64(b []byte, v uint64) []byte {
	return append(b, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func ckStr(b []byte, s string) []byte {
	b = ckU16(b, uint16(len(s)))
	return append(b, s...)
}

func encodeCheckpoint(c *checkpoint) []byte {
	b := append([]byte(nil), ckMagic...)
	b = ckU64(b, c.hash)
	b = ckU32(b, uint32(c.numPoints))
	idxs := make([]int, 0, len(c.completed))
	for i := range c.completed {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	b = ckU32(b, uint32(len(idxs)))
	for _, i := range idxs {
		rep := c.completed[i]
		b = ckU32(b, uint32(i))
		names := make([]string, 0, len(rep.Values))
		for name := range rep.Values {
			names = append(names, name)
		}
		sort.Strings(names)
		b = ckU32(b, uint32(len(names)))
		for _, name := range names {
			b = ckStr(b, name)
			b = ckU64(b, math.Float64bits(rep.Values[name]))
		}
	}
	sum := fnv.New64a()
	sum.Write(b)
	return ckU64(b, sum.Sum64())
}

// ckReader is a bounds-checked cursor over an encoded checkpoint; the
// first out-of-bounds read latches failed and every later read returns
// zero, so decode checks the flag once at the end instead of threading
// errors through every field.
type ckReader struct {
	b      []byte
	off    int
	failed bool
}

func (r *ckReader) take(n int) []byte {
	if r.failed || r.off+n > len(r.b) {
		r.failed = true
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *ckReader) u16() uint16 {
	s := r.take(2)
	if s == nil {
		return 0
	}
	return uint16(s[0])<<8 | uint16(s[1])
}

func (r *ckReader) u32() uint32 {
	s := r.take(4)
	if s == nil {
		return 0
	}
	return uint32(s[0])<<24 | uint32(s[1])<<16 | uint32(s[2])<<8 | uint32(s[3])
}

func (r *ckReader) u64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return uint64(s[0])<<56 | uint64(s[1])<<48 | uint64(s[2])<<40 | uint64(s[3])<<32 |
		uint64(s[4])<<24 | uint64(s[5])<<16 | uint64(s[6])<<8 | uint64(s[7])
}

func (r *ckReader) str() string { return string(r.take(int(r.u16()))) }

// Minimum encoded sizes of the counted records, which bound a count by the
// bytes still unread: a point (index, value count) and a measure value
// (empty name, value).
const (
	ckPointMin = 4 + 4
	ckValueMin = 2 + 8
)

// count reads an element count and latches failed when the unread bytes
// cannot hold that many records of at least size bytes each, so a corrupt
// count never sizes an allocation or a loop.
func (r *ckReader) count(size int) int {
	n := int(r.u32())
	if n > (len(r.b)-r.off)/size {
		r.failed = true
		return 0
	}
	return n
}

func (r *ckReader) f64() float64 { return math.Float64frombits(r.u64()) }

// decodeCheckpoint parses and checksums an encoded checkpoint. report
// rebuilds a Phase2Report shell around a decoded value map (the caller
// closes it over the current run's state-space sizes, which the
// structural hash guarantees match). The checksum only catches accidental
// damage, so every count is bounded by the bytes still unread before it
// sizes anything, and the decoder accepts only what encodeCheckpoint
// writes: completed indices strictly ascending and below numPoints, and
// value names strictly ascending. A file of another format version is
// rejected with ErrCheckpointVersion before anything else is read.
func decodeCheckpoint(data []byte, report func(values map[string]float64) *Phase2Report) (*checkpoint, error) {
	if len(data) < len(ckMagic)+16 || string(data[:len(ckFamily)]) != ckFamily {
		return nil, ErrCheckpointCorrupt
	}
	if v := data[len(ckFamily)]; v != ckVersion {
		return nil, fmt.Errorf("%w: file has version %q, this build reads version %q",
			ErrCheckpointVersion, v, ckVersion)
	}
	body, tail := data[:len(data)-8], data[len(data)-8:]
	sum := fnv.New64a()
	sum.Write(body)
	want := uint64(tail[0])<<56 | uint64(tail[1])<<48 | uint64(tail[2])<<40 | uint64(tail[3])<<32 |
		uint64(tail[4])<<24 | uint64(tail[5])<<16 | uint64(tail[6])<<8 | uint64(tail[7])
	if sum.Sum64() != want {
		return nil, ErrCheckpointCorrupt
	}
	r := &ckReader{b: body, off: len(ckMagic)}
	c := &checkpoint{
		hash:      r.u64(),
		completed: make(map[int]*Phase2Report),
	}
	c.numPoints = int(r.u32())
	prevIdx := -1
	for d, nDone := 0, r.count(ckPointMin); d < nDone && !r.failed; d++ {
		idx := int(r.u32())
		if idx <= prevIdx || idx >= c.numPoints {
			return nil, ErrCheckpointCorrupt
		}
		prevIdx = idx
		values := make(map[string]float64)
		prevName := ""
		for v, nv := 0, r.count(ckValueMin); v < nv && !r.failed; v++ {
			name := r.str()
			if v > 0 && name <= prevName {
				return nil, ErrCheckpointCorrupt
			}
			prevName = name
			values[name] = r.f64()
		}
		c.completed[idx] = report(values)
	}
	if r.failed || r.off != len(body) {
		return nil, ErrCheckpointCorrupt
	}
	return c, nil
}

// loadCheckpoint reads and validates a checkpoint for a sweep identified
// by its structural hash and point count. A missing file returns
// (nil, nil): resuming with no checkpoint is a fresh start.
func loadCheckpoint(path string, hash uint64, numPoints int,
	report func(values map[string]float64) *Phase2Report) (*checkpoint, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, &CheckpointError{Op: "load", Path: path, Err: err}
	}
	c, err := decodeCheckpoint(data, report)
	if err != nil {
		return nil, &CheckpointError{Op: "decode", Path: path, Err: err}
	}
	if c.hash != hash || c.numPoints != numPoints {
		return nil, &CheckpointError{Op: "load", Path: path, Err: ErrCheckpointMismatch}
	}
	return c, nil
}

// ckWriter accumulates completed sweep points and rewrites the checkpoint
// file every opts.Every completions. It has its own lock: sweep workers
// report completions from several goroutines, and the writer is the only
// place their reports are read before the sweep returns.
type ckWriter struct {
	mu      sync.Mutex
	opts    CheckpointOptions
	hash    uint64
	numPts  int
	done    map[int]*Phase2Report
	since   int
	ordinal int // write ordinal, the fault-injection key
}

// newCkWriter starts a writer, seeded with the points a resumed
// checkpoint already holds so later writes keep them.
func newCkWriter(opts CheckpointOptions, hash uint64, numPoints int, prior *checkpoint) *ckWriter {
	if opts.Every <= 0 {
		opts.Every = 8
	}
	w := &ckWriter{
		opts:   opts,
		hash:   hash,
		numPts: numPoints,
		done:   make(map[int]*Phase2Report),
	}
	if prior != nil {
		for i, rep := range prior.completed {
			w.done[i] = rep
		}
	}
	return w
}

// completed records one finished point and writes the checkpoint when the
// cadence is due. Write failures are strict: the sweep treats them as the
// point's failure rather than carrying on with an unwritable checkpoint.
func (w *ckWriter) completed(i int, rep *Phase2Report) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.done[i]; ok {
		return nil
	}
	w.done[i] = rep
	w.since++
	if w.since < w.opts.Every {
		return nil
	}
	w.since = 0
	return w.writeLocked()
}

// writeLocked encodes the completed set and atomically replaces the
// checkpoint file. Must be called with w.mu held.
func (w *ckWriter) writeLocked() error {
	ord := w.ordinal
	w.ordinal++
	if faultinject.Fire(faultinject.SiteCheckpointWrite, ord) {
		return &CheckpointError{Op: "write", Path: w.opts.Path,
			Err: &faultinject.InjectedError{Site: faultinject.SiteCheckpointWrite, Key: ord}}
	}
	data := encodeCheckpoint(&checkpoint{
		hash:      w.hash,
		numPoints: w.numPts,
		completed: w.done,
	})
	tmp := w.opts.Path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return &CheckpointError{Op: "write", Path: w.opts.Path, Err: err}
	}
	if err := os.Rename(tmp, w.opts.Path); err != nil {
		return &CheckpointError{Op: "write", Path: w.opts.Path, Err: err}
	}
	return nil
}
