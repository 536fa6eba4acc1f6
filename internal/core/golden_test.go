package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"testing"

	"sourcelda/internal/corpus"
)

// The determinism tests elsewhere in this package compare two runs of the
// same binary, so an edit that changes the chain's bits in every run passes
// them all. These constants were recorded at commit ebbbf6f (before the
// default-δ mass was hoisted out of the per-token loops) and pin the
// trajectory itself: FNV-64a over every token's assignment and over the bit
// patterns of Φ after goldenSweeps sweeps of the fixture chain. A kernel,
// model-build or Phi change that is meant to be arithmetic-neutral must pass
// with them untouched; a change that is meant to move the chain re-records
// them and says so. theta and df pin the readers of the document-topic
// counts: the bit patterns of Θ, and TopicDocumentFrequencies at thresholds
// 1 and 2. They were recorded while the chain still cached those counts in a
// D×T slab, so counting them from the assignments must reproduce them.
const goldenSweeps = 12 // past the default LambdaBurnIn of 10 and PruneAfter

var goldenTrajectories = []struct {
	name  string
	run   func(t *testing.T) *Model
	z     uint64
	phi   uint64
	theta uint64
	df    uint64
}{
	{"serial/sequential", goldenFit(func(o *Options) {}), 0x08e61c26a76ffa37, 0x37902a5718728c46, 0x6f6e90ad61adf1ff, 0xb788b5931fbed6ec},
	{"serial/sharded-1", goldenFit(func(o *Options) { o.SweepMode = SweepShardedDocs; o.Shards = 1 }), 0x08e61c26a76ffa37, 0x37902a5718728c46, 0x6f6e90ad61adf1ff, 0xb788b5931fbed6ec},
	{"serial/sharded-2", goldenFit(func(o *Options) { o.SweepMode = SweepShardedDocs; o.Shards = 2; o.Threads = 2 }), 0x655290eeba528d08, 0x743760d942906fe7, 0x8eeea362bbb7104b, 0xc3aa90731a98f542},
	{"sparse/sequential", goldenFit(func(o *Options) { o.Sampler = SamplerSparse }), 0x8a8efe69ee433048, 0x2ead9ef6e7223f55, 0x5e0d57fbda1a19a5, 0xbaa10bd11516bc99},
	{"append-then-sweep", goldenAppend, 0x190ac002be65a53e, 0x4e07f4de03000f7c, 0x714ed2523bcba868, 0x9a35ba76fd055d88},
	{"checkpoint-restore-sweep", goldenResume, 0x08e61c26a76ffa37, 0x37902a5718728c46, 0x6f6e90ad61adf1ff, 0xb788b5931fbed6ec},
}

func goldenOptions() Options {
	return Options{
		NumFreeTopics: 3, Alpha: 0.2, Beta: 0.01,
		LambdaMode: LambdaIntegrated, Mu: 0.7, Sigma: 0.3,
		QuadraturePoints: 5, UseSmoothing: true,
		PruneDeadTopics: true, PruneAfter: 8, PruneEvery: 5,
		Iterations: goldenSweeps, Seed: 4242,
	}
}

func goldenFit(set func(*Options)) func(t *testing.T) *Model {
	return func(t *testing.T) *Model {
		opts := goldenOptions()
		set(&opts)
		data := sweepFixture(t)
		m, err := Fit(data.Corpus, data.Source, opts)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
}

// goldenAppend trains on the first 18 fixture documents, streams the other
// six in through AppendDocs, and sweeps the grown chain.
func goldenAppend(t *testing.T) *Model {
	data := sweepFixture(t)
	c := &corpus.Corpus{
		Docs:  append([]*corpus.Document(nil), data.Corpus.Docs[:18]...),
		Vocab: data.Corpus.Vocab,
	}
	m, err := NewModel(c, data.Source, goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	m.Run(goldenSweeps / 2)
	if err := m.AppendDocs(data.Corpus.Docs[18:], 2); err != nil {
		t.Fatal(err)
	}
	m.Run(goldenSweeps / 2)
	return m
}

// goldenResume cuts the serial/sequential chain at sweep 6 and finishes it
// from the checkpoint; it must land on that chain's constants.
func goldenResume(t *testing.T) *Model {
	data := sweepFixture(t)
	m, err := NewModel(data.Corpus, data.Source, goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	m.Run(goldenSweeps / 2)
	ck := m.Checkpoint()
	m.Close()
	resumed, err := Restore(data.Corpus, data.Source, goldenOptions(), ck)
	if err != nil {
		t.Fatal(err)
	}
	resumed.Run(goldenSweeps / 2)
	return resumed
}

// digestAssignments is FNV-64a over every token's topic as a little-endian
// int32, documents in corpus order.
func digestAssignments(z [][]int) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, zd := range z {
		for _, t := range zd {
			binary.LittleEndian.PutUint32(b[:], uint32(int32(t)))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// digestPhi is FNV-64a over the IEEE-754 bit patterns of Φ, topic-major (or
// of any other matrix, row-major).
func digestPhi(phi [][]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, row := range phi {
		for _, p := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(p))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// skipUnlessAMD64 keeps the recorded bits to the architecture they were
// recorded on: where the compiler fuses x*y + z into one rounding (arm64,
// ppc64le, s390x) the same source yields a different, equally valid chain.
func skipUnlessAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden constants were recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
}

func TestGoldenTrajectory(t *testing.T) {
	skipUnlessAMD64(t)
	for _, g := range goldenTrajectories {
		t.Run(g.name, func(t *testing.T) {
			m := g.run(t)
			defer m.Close()
			z, phi := digestAssignments(m.Assignments()), digestPhi(m.Phi())
			if z != g.z || phi != g.phi {
				t.Fatalf("trajectory moved: assignments %#x (recorded %#x), Φ %#x (recorded %#x)", z, g.z, phi, g.phi)
			}
			theta := digestPhi(m.Theta())
			df := digestAssignments([][]int{m.TopicDocumentFrequencies(1), m.TopicDocumentFrequencies(2)})
			if theta != g.theta || df != g.df {
				t.Fatalf("document-topic readers moved: Θ %#x (recorded %#x), document frequencies %#x (recorded %#x)", theta, g.theta, df, g.df)
			}
		})
	}
}

// TestNewModelParallel pins the model build against GOMAXPROCS: pass 1 of
// newDeltaStore runs topics across goroutines, each writing its own slot and
// seeding its g estimator from the topic index, so the quadrature state and
// the chain grown from it must not depend on how many ran at once.
func TestNewModelParallel(t *testing.T) {
	data := sweepFixture(t)
	build := func(procs int) *Model {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		opts := goldenOptions()
		// The Monte-Carlo estimator draws from a per-topic generator; the
		// mean-field default would not notice a shared one.
		opts.SmoothingConfig.GridPoints = 5
		opts.SmoothingConfig.Samples = 3
		m, err := NewModel(data.Corpus, data.Source, opts)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	one, four := build(1), build(4)
	defer one.Close()
	defer four.Close()
	a, b := one.delta, four.delta
	for _, f := range []struct {
		name string
		a, b any
	}{
		{"exponents", a.exponents, b.exponents},
		{"totals", a.totals, b.totals},
		{"defaults", a.defaults, b.defaults},
		{"vals", a.vals, b.vals},
		{"wordStart", a.wordStart, b.wordStart},
		{"entryTopic", a.entryTopic, b.entryTopic},
	} {
		if !reflect.DeepEqual(f.a, f.b) {
			t.Fatalf("deltaStore.%s differs between GOMAXPROCS 1 and 4", f.name)
		}
	}
	one.Run(goldenSweeps)
	four.Run(goldenSweeps)
	if x, y := digestAssignments(one.Assignments()), digestAssignments(four.Assignments()); x != y {
		t.Fatalf("assignment digest %#x under GOMAXPROCS 1, %#x under 4", x, y)
	}
	if x, y := digestPhi(one.Phi()), digestPhi(four.Phi()); x != y {
		t.Fatalf("Φ digest %#x under GOMAXPROCS 1, %#x under 4", x, y)
	}
}

// TestGoldenHeldOutPerplexity pins HeldOutPerplexity on unpruned chains to
// the bits the per-token × per-topic evaluation returned at the same commit
// the trajectory constants were recorded at: the per-topic default
// probability and the enabled-topic bookkeeping must change nothing when no
// topic is disabled.
func TestGoldenHeldOutPerplexity(t *testing.T) {
	skipUnlessAMD64(t)
	data := sweepFixture(t)
	heldOut := &corpus.Corpus{
		Docs:  streamedDocs(data.Corpus.VocabSize(), 5, 29),
		Vocab: data.Corpus.Vocab,
	}
	for _, g := range []struct {
		name string
		set  func(*Options)
		bits uint64
	}{
		{"integrated", func(o *Options) {}, 0x40642298cac45223},
		{"fixed-lambda", func(o *Options) { o.LambdaMode = LambdaFixed; o.Lambda = 0.8 }, 0x40648fe76c02fafd},
	} {
		opts := goldenOptions()
		opts.PruneDeadTopics = false
		g.set(&opts)
		m, err := Fit(data.Corpus, data.Source, opts)
		if err != nil {
			t.Fatal(err)
		}
		ppl, err := m.HeldOutPerplexity(heldOut, 12, 4, 99)
		m.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(ppl); got != g.bits {
			t.Errorf("%s: held-out perplexity %v has bits %#x, recorded %#x", g.name, ppl, got, g.bits)
		}
	}
}
