package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"sourcelda/internal/mathx"
)

// cumulative turns increments into the running sums searchTarget reads.
func cumulative(probs []float64) []float64 {
	cum := append([]float64(nil), probs...)
	mathx.PrefixSums(cum)
	return cum
}

// TestSamplersDegenerateMassFallback: a zero, NaN or infinite total must fall
// back to the positive-mass support only, never to a zero-probability index
// (the old uniform-over-everything fallback could resurrect pruned topics).
func TestSamplersDegenerateMassFallback(t *testing.T) {
	for _, c := range []struct {
		name  string
		probs []float64
		want  int // the sole index with positive mass
	}{
		{"nan-total", []float64{0, 0, 3, math.NaN()}, 2},
		{"inf-total", []float64{0, math.Inf(1), 0, 0}, 1},
		{"zero-total", []float64{0, 2, -2, 0}, 1},
	} {
		for _, u := range []float64{0, 0.3, 0.6, 0.99} {
			if got := searchTarget(cumulative(c.probs), u); got != c.want {
				t.Fatalf("%s: u=%v chose index %d, want %d", c.name, u, got, c.want)
			}
		}
	}
}

func TestSamplersPanicOnNoPositiveMass(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("all-zero mass must panic, not invent a topic")
		}
	}()
	searchTarget(make([]float64, 4), 0.6)
}

// TestSparseDrawFallsBackToDenseScan: when the bucket walk reports
// degenerate mass the view must land on the dense scan with the same variate,
// so both kernels degrade to the same index.
func TestSparseDrawFallsBackToDenseScan(t *testing.T) {
	data := sweepFixture(t)
	m, err := NewModel(data.Corpus, data.Source, sparseBaseOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Run(4)
	v := m.seq
	v.setDoc(m.z[0])
	v.setToken(m.c.Docs[0].Words[0])
	v.dec(m.z[0][0])
	defer v.inc(m.z[0][0])

	cum := make([]float64, m.T)
	v.fill(cum)
	mathx.PrefixSums(cum)
	v.sparse.freeSmooth = math.NaN() // poisons the bucket total, not fill
	for _, u := range []float64{0, 0.2, 0.5, 0.9, 0.999} {
		if _, ok := v.sparse.draw(u); ok {
			t.Fatal("poisoned bucket total was not reported as degenerate")
		}
		if got, want := v.draw(u), searchTarget(cum, u); got != want {
			t.Fatalf("u=%v: fallback drew %d, dense scan draws %d", u, got, want)
		}
	}
}

// TestUnknownKernelsAndModesRejected: every SamplerKind and SweepMode integer
// that names nothing this build runs must fail NewModel and Restore — the
// retired Algorithm 2/3 values by name — instead of sampling serially under a
// digest that hashes the stray value.
func TestUnknownKernelsAndModesRejected(t *testing.T) {
	data := sweepFixture(t)
	ck := func() *Checkpoint {
		m, err := NewModel(data.Corpus, data.Source, goldenOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		return m.Checkpoint()
	}()
	for _, c := range []struct {
		name    string
		set     func(*Options)
		retired string // non-empty: the error must name this kernel
	}{
		{"simple-parallel", func(o *Options) { o.Sampler = 1 }, "simple-parallel"},
		{"prefix-sums", func(o *Options) { o.Sampler = 2 }, "prefix-sums"},
		{"sampler-7", func(o *Options) { o.Sampler = 7 }, ""},
		{"sampler-negative", func(o *Options) { o.Sampler = -1 }, ""},
		{"sweepmode-2", func(o *Options) { o.SweepMode = 2 }, ""},
	} {
		opts := goldenOptions()
		c.set(&opts)
		_, errNew := NewModel(data.Corpus, data.Source, opts)
		_, errRestore := Restore(data.Corpus, data.Source, opts, ck)
		for entry, err := range map[string]error{"NewModel": errNew, "Restore": errRestore} {
			if err == nil {
				t.Fatalf("%s: %s accepted the options", c.name, entry)
			}
			if got := errors.Is(err, ErrRetiredSampler); got != (c.retired != "") {
				t.Fatalf("%s: %s: errors.Is(ErrRetiredSampler) = %v for %v", c.name, entry, got, err)
			}
			if !strings.Contains(err.Error(), c.retired) {
				t.Fatalf("%s: %s error does not name the kernel: %v", c.name, entry, err)
			}
		}
	}
	for name, wantRetired := range map[string]bool{"simple-parallel": true, "prefix-sums": true, "auto": false, "": false} {
		if _, err := ParseSampler(name); err == nil || errors.Is(err, ErrRetiredSampler) != wantRetired {
			t.Fatalf("ParseSampler(%q) = %v", name, err)
		}
	}
	for _, k := range []SamplerKind{SamplerSerial, SamplerSparse} {
		if got, err := ParseSampler(k.String()); err != nil || got != k {
			t.Fatalf("ParseSampler(%q) = %v, %v", k, got, err)
		}
	}
}

// TestRetiredKernelCheckpointNamed: a checkpoint's only trace of its kernel
// is the options digest. One written under a retired kernel — which is what
// `-threads 2` selected before Threads became a pure resource bound — must be
// refused by that kernel's name, not as an anonymous digest mismatch.
func TestRetiredKernelCheckpointNamed(t *testing.T) {
	data := sweepFixture(t)
	m, err := NewModel(data.Corpus, data.Source, goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for kind, name := range retiredSamplers {
		ck := m.Checkpoint()
		written := goldenOptions()
		written.applyDefaults()
		written.Sampler = kind
		ck.OptionsDigest = written.chainDigest()
		_, err := Restore(data.Corpus, data.Source, goldenOptions(), ck)
		if !errors.Is(err, ErrRetiredSampler) || !strings.Contains(err.Error(), name) {
			t.Fatalf("checkpoint written under %s: Restore error %v", name, err)
		}
	}
}

// TestChainDigestPinned records Options.ChainDigest() at commit b9f3366, the
// last with four kernels. Every checkpoint and chain archive embeds this
// digest, so these must not move: renumbering SamplerSparse, or letting
// Threads leak into the hash, orphans every saved chain.
func TestChainDigestPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(*Options)
		want uint64
	}{
		{"serial/sequential", func(o *Options) {}, 0xe1ac1efd59fafb9a},
		{"serial/sequential-threads-4", func(o *Options) { o.Threads = 4 }, 0xe1ac1efd59fafb9a},
		{"serial/sharded-2", func(o *Options) { o.SweepMode = SweepShardedDocs; o.Shards = 2; o.Threads = 2 }, 0xe8f3c7fd5db60b17},
		{"sparse/sequential", func(o *Options) { o.Sampler = SamplerSparse }, 0xc23926df0f21a807},
	} {
		opts := goldenOptions()
		c.set(&opts)
		if got := opts.ChainDigest(); got != c.want {
			t.Errorf("%s: chain digest %#016x, recorded %#016x", c.name, got, c.want)
		}
	}
}
