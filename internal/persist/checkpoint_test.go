package persist

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"sourcelda/internal/core"
)

// checkpointFixture builds a structurally plausible checkpoint by hand; the
// persist layer round-trips bytes and never interprets chain semantics, so
// no fitted model is needed.
func checkpointFixture() *core.Checkpoint {
	return &core.Checkpoint{
		Sweep:           42,
		Seed:            -7,
		OptionsDigest:   0xDEADBEEFCAFEF00D,
		NumFreeTopics:   3,
		NumSourceTopics: 5,
		VocabSize:       101,
		NumDocs:         4,
		DocLengths:      []int32{3, 1, 0, 2},
		Z:               []int32{0, 7, 3, 2, 1, 4},
		LambdaWeights:   []float64{0.25, 0.75, 1e-300, math.Inf(1), math.NaN()},
		Disabled:        []bool{false, true, false, false, true, false, false, false},
		StreamPos:       []uint64{0, 123456789012345, math.MaxUint64},
		LikelihoodTrace: []float64{-1234.5, -1100.25},
		IterationTimes:  []time.Duration{3 * time.Millisecond, 2999999},
	}
}

// checkpointsEqual compares with NaN-tolerant float equality (reflect treats
// NaN != NaN).
func checkpointsEqual(a, b *core.Checkpoint) bool {
	fixNaN := func(xs []float64) []float64 {
		out := append([]float64(nil), xs...)
		for i, x := range out {
			if math.IsNaN(x) {
				out[i] = -0.123456789 // sentinel; only used for comparison
			}
		}
		return out
	}
	ac, bc := *a, *b
	ac.LambdaWeights, bc.LambdaWeights = fixNaN(a.LambdaWeights), fixNaN(b.LambdaWeights)
	ac.LikelihoodTrace, bc.LikelihoodTrace = fixNaN(a.LikelihoodTrace), fixNaN(b.LikelihoodTrace)
	return reflect.DeepEqual(&ac, &bc)
}

func TestCheckpointRoundTrip(t *testing.T) {
	for _, ck := range []*core.Checkpoint{
		checkpointFixture(),
		{}, // all-empty state must round-trip too
	} {
		var buf bytes.Buffer
		if err := SaveCheckpoint(&buf, ck); err != nil {
			t.Fatal(err)
		}
		got, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		// Loading materializes empty slices as nil or zero-length; normalize
		// by comparing through a second encode.
		var buf2 bytes.Buffer
		if err := SaveCheckpoint(&buf2, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("checkpoint did not round-trip to identical bytes")
		}
		if !checkpointsEqual(got, ck) && len(ck.Z) > 0 {
			t.Fatal("decoded checkpoint differs from original")
		}
	}
}

// TestCheckpointRejectsTruncation: every proper prefix of a valid checkpoint
// file must fail to load with an error (never panic, never a partial
// checkpoint) — the torn-write half of crash safety.
func TestCheckpointRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, checkpointFixture()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for n := 0; n < len(full); n++ {
		if _, err := LoadCheckpoint(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("truncation to %d of %d bytes loaded without error", n, len(full))
		}
	}
}

// TestCheckpointRejectsTampering: flipping any single byte of a valid file
// must fail the magic, version, length or CRC check.
func TestCheckpointRejectsTampering(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, checkpointFixture()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for i := range full {
		tampered := append([]byte(nil), full...)
		tampered[i] ^= 0x40
		if _, err := LoadCheckpoint(bytes.NewReader(tampered)); err == nil {
			t.Fatalf("flip of byte %d of %d loaded without error", i, len(full))
		}
	}
}

func TestCheckpointRejectsForeignAndFutureFiles(t *testing.T) {
	if _, err := LoadCheckpoint(bytes.NewReader([]byte("{\"kind\":\"corpus\"}"))); err == nil {
		t.Fatal("JSON artifact accepted as checkpoint")
	}
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, checkpointFixture()); err != nil {
		t.Fatal(err)
	}
	future := append([]byte(nil), buf.Bytes()...)
	future[len(checkpointMagic)] = CheckpointVersion + 1
	if _, err := LoadCheckpoint(bytes.NewReader(future)); err == nil {
		t.Fatal("future format version accepted")
	}
}

func TestCheckpointWriterRetention(t *testing.T) {
	dir := t.TempDir()
	cw, err := NewCheckpointWriter(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A foreign file and a stray temp file must survive pruning untouched.
	foreign := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(foreign, []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, "."+checkpointFileName(10)+".tmp-stray")
	if err := os.WriteFile(stray, []byte("torn write"), 0o644); err != nil {
		t.Fatal(err)
	}

	ck := checkpointFixture()
	var last string
	for _, sweep := range []int{10, 20, 30, 40} {
		ck.Sweep = sweep
		p, err := cw.Write(ck)
		if err != nil {
			t.Fatal(err)
		}
		last = p
	}
	paths, err := ListCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("retention kept %d checkpoints, want 2: %v", len(paths), paths)
	}
	if got := filepath.Base(paths[0]); got != checkpointFileName(30) {
		t.Fatalf("oldest surviving checkpoint %s, want sweep 30", got)
	}
	latest, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if latest != last || filepath.Base(latest) != checkpointFileName(40) {
		t.Fatalf("latest checkpoint %s, want %s", latest, last)
	}
	for _, p := range []string{foreign, stray} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("pruning removed non-checkpoint file %s: %v", p, err)
		}
	}

	// Loading through the directory path picks the newest.
	got, err := LoadCheckpointFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sweep != 40 {
		t.Fatalf("LoadCheckpointFile(dir) picked sweep %d, want 40", got.Sweep)
	}
}

func TestCheckpointWriterKeepAll(t *testing.T) {
	dir := t.TempDir()
	cw, err := NewCheckpointWriter(dir, -1)
	if err != nil {
		t.Fatal(err)
	}
	ck := checkpointFixture()
	for _, sweep := range []int{1, 2, 3, 4, 5} {
		ck.Sweep = sweep
		if _, err := cw.Write(ck); err != nil {
			t.Fatal(err)
		}
	}
	paths, err := ListCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 5 {
		t.Fatalf("negative retention pruned: %d checkpoints left", len(paths))
	}
}

func TestLatestCheckpointEmptyDir(t *testing.T) {
	if _, err := LatestCheckpoint(t.TempDir()); err == nil {
		t.Fatal("empty directory produced a latest checkpoint")
	}
}
