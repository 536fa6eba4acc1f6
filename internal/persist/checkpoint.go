package persist

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"sourcelda/internal/core"
)

// Training checkpoints use a binary format rather than the JSON of the other
// artifacts: a checkpoint is written every few sweeps on the training hot
// path and is dominated by one int32 per corpus token, so it is encoded as
// little-endian slabs framed by a magic string, a format version, an
// explicit payload length, and a CRC-32 of the payload. The frame makes the
// failure modes of crash-time files first-class: a truncated write fails the
// length check, a torn or bit-flipped write fails the checksum, and a file
// from a future format version is refused instead of misread.
const (
	checkpointMagic   = "SLDACKPT"
	CheckpointVersion = 1

	// maxCheckpointPayload bounds the decoder's allocation when reading an
	// attacker-supplied or corrupted length prefix (16 GiB is far beyond any
	// real chain state, which is ~4 bytes per corpus token).
	maxCheckpointPayload = 16 << 30
)

// SaveCheckpoint writes ck to w in the framed binary checkpoint format.
func SaveCheckpoint(w io.Writer, ck *core.Checkpoint) error {
	if ck == nil {
		return fmt.Errorf("persist: nil checkpoint")
	}
	return WriteFrame(w, checkpointMagic, CheckpointVersion, appendCheckpointPayload(nil, ck))
}

// EncodeCheckpoint returns ck serialized as one complete checkpoint frame —
// the same bytes SaveCheckpoint writes — for callers that embed checkpoints
// inside other messages (the dtrain workers ship their sync-boundary state
// this way).
func EncodeCheckpoint(ck *core.Checkpoint) ([]byte, error) {
	if ck == nil {
		return nil, fmt.Errorf("persist: nil checkpoint")
	}
	payload := appendCheckpointPayload(nil, ck)
	return AppendFrame(make([]byte, 0, frameHeaderSize+len(payload)+4), checkpointMagic, CheckpointVersion, payload), nil
}

func appendCheckpointPayload(b []byte, ck *core.Checkpoint) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(ck.Sweep))
	b = binary.LittleEndian.AppendUint64(b, uint64(ck.Seed))
	b = binary.LittleEndian.AppendUint64(b, ck.OptionsDigest)
	b = binary.LittleEndian.AppendUint64(b, uint64(ck.NumFreeTopics))
	b = binary.LittleEndian.AppendUint64(b, uint64(ck.NumSourceTopics))
	b = binary.LittleEndian.AppendUint64(b, uint64(ck.VocabSize))
	b = binary.LittleEndian.AppendUint64(b, uint64(ck.NumDocs))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(ck.DocLengths)))
	for _, n := range ck.DocLengths {
		b = binary.LittleEndian.AppendUint32(b, uint32(n))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(ck.Z)))
	for _, t := range ck.Z {
		b = binary.LittleEndian.AppendUint32(b, uint32(t))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(ck.LambdaWeights)))
	for _, w := range ck.LambdaWeights {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(ck.Disabled)))
	for _, d := range ck.Disabled {
		if d {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(ck.StreamPos)))
	for _, p := range ck.StreamPos {
		b = binary.LittleEndian.AppendUint64(b, p)
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(ck.LikelihoodTrace)))
	for _, ll := range ck.LikelihoodTrace {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ll))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(ck.IterationTimes)))
	for _, d := range ck.IterationTimes {
		b = binary.LittleEndian.AppendUint64(b, uint64(d.Nanoseconds()))
	}
	return b
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint, verifying the
// magic, format version, payload length and CRC-32 before decoding. A
// truncated, tampered or foreign file returns an error; the decoder never
// panics on malformed input (fuzzed). Structural validation against the
// corpus, source and options the checkpoint belongs to happens in
// core.Restore — this layer only guarantees the bytes decode to the shape
// they were encoded from.
func LoadCheckpoint(r io.Reader) (*core.Checkpoint, error) {
	version, payload, err := ReadFrame(r, checkpointMagic, maxCheckpointPayload, "checkpoint file")
	if err != nil {
		return nil, err
	}
	if version != CheckpointVersion {
		return nil, fmt.Errorf("persist: unsupported checkpoint version %d (this build reads version %d)", version, CheckpointVersion)
	}
	return decodeCheckpointPayload(payload)
}

// payloadCursor decodes fixed-width fields from a checkpoint payload with
// bounds checking: any read past the end flags truncation instead of
// panicking, and slice counts are validated against the bytes actually
// remaining before allocation.
type payloadCursor struct {
	b   []byte
	off int
	err error
}

func (c *payloadCursor) u64(what string) uint64 {
	if c.err != nil {
		return 0
	}
	if c.off+8 > len(c.b) {
		c.err = fmt.Errorf("persist: checkpoint payload truncated at %s", what)
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

func (c *payloadCursor) u32(what string) uint32 {
	if c.err != nil {
		return 0
	}
	if c.off+4 > len(c.b) {
		c.err = fmt.Errorf("persist: checkpoint payload truncated at %s", what)
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

// count reads a slice length and checks that width bytes per element still
// fit in the remaining payload, so a corrupt count cannot force a huge
// allocation or a tail of zero-filled elements.
func (c *payloadCursor) count(what string, width int) int {
	n := c.u64(what)
	if c.err != nil {
		return 0
	}
	if remaining := uint64(len(c.b) - c.off); n > remaining/uint64(width) {
		c.err = fmt.Errorf("persist: checkpoint %s count %d exceeds remaining payload", what, n)
		return 0
	}
	return int(n)
}

// intField narrows a u64 payload field back to a non-negative int.
func (c *payloadCursor) intField(what string) int {
	v := c.u64(what)
	if c.err != nil {
		return 0
	}
	if v > math.MaxInt64/2 {
		c.err = fmt.Errorf("persist: checkpoint %s value %d out of range", what, v)
		return 0
	}
	return int(v)
}

func decodeCheckpointPayload(payload []byte) (*core.Checkpoint, error) {
	c := &payloadCursor{b: payload}
	ck := &core.Checkpoint{}
	ck.Sweep = c.intField("sweep")
	ck.Seed = int64(c.u64("seed"))
	ck.OptionsDigest = c.u64("options digest")
	ck.NumFreeTopics = c.intField("free-topic count")
	ck.NumSourceTopics = c.intField("source-topic count")
	ck.VocabSize = c.intField("vocabulary size")
	ck.NumDocs = c.intField("document count")

	if n := c.count("document lengths", 4); c.err == nil {
		ck.DocLengths = make([]int32, n)
		for i := range ck.DocLengths {
			ck.DocLengths[i] = int32(c.u32("document length"))
		}
	}
	if n := c.count("assignments", 4); c.err == nil {
		ck.Z = make([]int32, n)
		for i := range ck.Z {
			ck.Z[i] = int32(c.u32("assignment"))
		}
	}
	if n := c.count("λ weights", 8); c.err == nil {
		ck.LambdaWeights = make([]float64, n)
		for i := range ck.LambdaWeights {
			ck.LambdaWeights[i] = math.Float64frombits(c.u64("λ weight"))
		}
	}
	if n := c.count("disabled flags", 1); c.err == nil {
		ck.Disabled = make([]bool, n)
		for i := range ck.Disabled {
			if c.off >= len(c.b) {
				c.err = fmt.Errorf("persist: checkpoint payload truncated at disabled flag")
				break
			}
			ck.Disabled[i] = c.b[c.off] != 0
			c.off++
		}
	}
	if n := c.count("stream positions", 8); c.err == nil {
		ck.StreamPos = make([]uint64, n)
		for i := range ck.StreamPos {
			ck.StreamPos[i] = c.u64("stream position")
		}
	}
	if n := c.count("likelihood trace", 8); c.err == nil {
		ck.LikelihoodTrace = make([]float64, n)
		for i := range ck.LikelihoodTrace {
			ck.LikelihoodTrace[i] = math.Float64frombits(c.u64("likelihood entry"))
		}
	}
	if n := c.count("iteration times", 8); c.err == nil {
		ck.IterationTimes = make([]time.Duration, n)
		for i := range ck.IterationTimes {
			ck.IterationTimes[i] = time.Duration(c.u64("iteration time"))
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.off != len(c.b) {
		return nil, fmt.Errorf("persist: checkpoint payload has %d trailing bytes", len(c.b)-c.off)
	}
	return ck, nil
}

// checkpointFilePattern names checkpoint files by sweep so retention and
// latest-selection order lexically and numerically alike.
const (
	checkpointPrefix = "checkpoint-"
	checkpointSuffix = ".ckpt"
)

func checkpointFileName(sweep int) string {
	return fmt.Sprintf("%s%010d%s", checkpointPrefix, sweep, checkpointSuffix)
}

// checkpointSweep parses the sweep index out of a checkpoint file name,
// returning -1 for names that don't match the pattern (temp files, foreign
// files living in the same directory).
func checkpointSweep(name string) int {
	if !strings.HasPrefix(name, checkpointPrefix) || !strings.HasSuffix(name, checkpointSuffix) {
		return -1
	}
	n, err := strconv.Atoi(name[len(checkpointPrefix) : len(name)-len(checkpointSuffix)])
	if err != nil || n < 0 {
		return -1
	}
	return n
}

// CheckpointWriter persists a training run's periodic checkpoints into a
// directory with crash-safe writes and bounded retention. Each Write lands
// as checkpoint-<sweep>.ckpt through WriteFileAtomic — a crash mid-write can
// leave a stray temp file but never a half-written checkpoint under the
// final name — and then prunes all but the newest retain checkpoints.
type CheckpointWriter struct {
	dir    string
	retain int
}

// DefaultCheckpointRetain is how many most-recent checkpoints a writer keeps
// when retention is unspecified.
const DefaultCheckpointRetain = 3

// NewCheckpointWriter creates dir if needed and returns a writer that keeps
// the retain most recent checkpoints (0 means DefaultCheckpointRetain; a
// negative value keeps every checkpoint).
func NewCheckpointWriter(dir string, retain int) (*CheckpointWriter, error) {
	if dir == "" {
		return nil, fmt.Errorf("persist: checkpoint directory must be non-empty")
	}
	if retain == 0 {
		retain = DefaultCheckpointRetain
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: create checkpoint directory: %w", err)
	}
	return &CheckpointWriter{dir: dir, retain: retain}, nil
}

// Write persists ck and returns the final checkpoint path. Retention
// pruning failures are ignored (the new checkpoint is already durable);
// write, sync or rename failures are returned.
func (cw *CheckpointWriter) Write(ck *core.Checkpoint) (string, error) {
	if ck == nil {
		return "", fmt.Errorf("persist: nil checkpoint")
	}
	final := filepath.Join(cw.dir, checkpointFileName(ck.Sweep))
	if err := WriteFileAtomic(final, func(w io.Writer) error { return SaveCheckpoint(w, ck) }); err != nil {
		return "", err
	}
	cw.prune()
	return final, nil
}

// prune removes all but the newest retain checkpoints (by sweep index).
func (cw *CheckpointWriter) prune() {
	if cw.retain < 0 {
		return
	}
	paths, err := ListCheckpoints(cw.dir)
	if err != nil {
		return
	}
	for _, p := range paths[:max(0, len(paths)-cw.retain)] {
		os.Remove(p)
	}
}

// ListCheckpoints returns the checkpoint files in dir ordered oldest to
// newest by sweep index. Temp files and foreign files are ignored.
func ListCheckpoints(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("persist: read checkpoint directory: %w", err)
	}
	type entry struct {
		sweep int
		path  string
	}
	var found []entry
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if s := checkpointSweep(e.Name()); s >= 0 {
			found = append(found, entry{sweep: s, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].sweep < found[j].sweep })
	out := make([]string, len(found))
	for i, f := range found {
		out[i] = f.path
	}
	return out, nil
}

// LatestCheckpoint returns the newest checkpoint file in dir, or an error
// if the directory holds none — the crash-recovery entry point: point it at
// a dead run's checkpoint directory and resume from what it returns.
func LatestCheckpoint(dir string) (string, error) {
	paths, err := ListCheckpoints(dir)
	if err != nil {
		return "", err
	}
	if len(paths) == 0 {
		return "", fmt.Errorf("persist: no checkpoints in %s", dir)
	}
	return paths[len(paths)-1], nil
}

// FindCheckpoint reports the path of the checkpoint for exactly the given
// sweep, if dir holds one. Distributed-training recovery needs the exact
// sync-boundary checkpoint rather than the newest: a worker may have
// checkpointed a later boundary and died before its delta reached the
// coordinator, in which case the newest local state is ahead of the global
// chain.
func FindCheckpoint(dir string, sweep int) (string, bool) {
	path := filepath.Join(dir, checkpointFileName(sweep))
	info, err := os.Stat(path)
	if err != nil || info.IsDir() {
		return "", false
	}
	return path, true
}

// LoadCheckpointFile loads a checkpoint from path. A directory path selects
// its newest checkpoint, so callers can resume from either an exact file or
// a run's checkpoint directory.
func LoadCheckpointFile(path string) (*core.Checkpoint, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("persist: stat checkpoint: %w", err)
	}
	if info.IsDir() {
		path, err = LatestCheckpoint(path)
		if err != nil {
			return nil, err
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("persist: open checkpoint: %w", err)
	}
	defer f.Close()
	ck, err := LoadCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return ck, nil
}
