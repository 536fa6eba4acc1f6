package bench

import (
	"fmt"
	"math"
)

// RefSeconds is the --seconds value the workload sizes below were fitted to
// (BENCHMARK.json's run_seconds). Every count that scales a timed phase is
// proportional to seconds/RefSeconds, so one flag stretches the whole run.
const RefSeconds = 12

// FreeTopics is passed as -free to the trainers; the produced bundle must
// carry SourceTopics + FreeTopics topics.
const FreeTopics = 8

// Serving topologies.
const (
	TopoDirect  = "direct"  // one srcldad -bundle
	TopoGateway = "gateway" // srcldagw in front of two srcldad replicas mapping the same bundle file
	TopoLearner = "learner" // the srcldad -learn-chain daemon serves while it is fed
)

// Trainers.
const (
	TrainSingle = "srclda"    // cmd/srclda, one process
	TrainDtrain = "srcldactl" // coordinator + two workers over loopback TCP
)

// Spec sizes one workload. Every workload runs the same pipeline — train →
// publish → serve → learn — on the real binaries, so each reports every
// end-to-end metric; the spec decides which regime the model is in, which
// trainer and serving topology run, and where the seconds are spent.
type Spec struct {
	Name string
	Why  string // one line, copied into BENCHMARK.json

	// Knowledge source and corpus, generated by internal/synth from the seed.
	SourceTopics  int // B
	LiveTopics    int // topics that actually generate documents
	WordsPerTopic int // minted signature words per topic; drives V
	ArticleTokens int
	TrainDocs     int
	HeldoutDocs   int
	DocTokens     int // mean training/held-out document length

	// Train stage.
	Trainer         string
	SweepsPerSecond float64 // sweeps (or dtrain epochs) = max(2, round(this × seconds))

	// Serve stage.
	Topology          string
	InferRate         float64 // Phase A: open-loop single-text requests per second
	BatchCallsPerSec  float64 // Phase B: closed-loop PhaseBDocs-document calls per second of --seconds
	FeedDocsPerSecond float64 // Learn stage: fed documents per second of --seconds

	// Learner chain, fitted in-process during set-up (cmd/srclda cannot
	// write a chain archive).
	ChainDocs   int
	ChainSweeps int
}

// Workloads returns the five workloads in the order `-workload all` runs
// them. The names are fixed: later issues cite them.
func Workloads() []Spec {
	return []Spec{
		{
			Name: "train_serve_t64",
			Why:  "Low-T dense-kernel regime: sweeps dominate the training wall, model build and bundle I/O are small; one replica serves directly.",

			SourceTopics: 64, LiveTopics: 24, WordsPerTopic: 200, ArticleTokens: 300,
			TrainDocs: 1200, HeldoutDocs: 100, DocTokens: 250,
			Trainer: TrainSingle, SweepsPerSecond: 1,
			Topology: TopoDirect, InferRate: 300, BatchCallsPerSec: 10, FeedDocsPerSecond: 300,
			ChainDocs: 300, ChainSweeps: 5,
		},
		{
			Name: "train_skewed_t1024",
			Why:  "High-T sparse-support regime: core.NewModel is ~40% of the training wall and the dense scan pays T per token; sparse kernels, delta-store build and flat-bundle write show here.",

			SourceTopics: 1024, LiveTopics: 100, WordsPerTopic: 3, ArticleTokens: 150,
			TrainDocs: 260, HeldoutDocs: 60, DocTokens: 200,
			Trainer: TrainSingle, SweepsPerSecond: 0.42,
			Topology: TopoDirect, InferRate: 80, BatchCallsPerSec: 1.25, FeedDocsPerSecond: 40,
			ChainDocs: 100, ChainSweeps: 2,
		},
		{
			Name: "dtrain_2w_t256",
			Why:  "Same core kernels under the external-counts overlay: a barrier and a dense T-by-V frame per epoch, three processes each loading text and building the model; wire encoding and start-up show here.",

			SourceTopics: 256, LiveTopics: 60, WordsPerTopic: 40, ArticleTokens: 300,
			TrainDocs: 500, HeldoutDocs: 80, DocTokens: 200,
			Trainer: TrainDtrain, SweepsPerSecond: 1.25,
			Topology: TopoDirect, InferRate: 200, BatchCallsPerSec: 3, FeedDocsPerSecond: 110,
			ChainDocs: 150, ChainSweeps: 3,
		},
		{
			Name: "serve_gateway",
			Why:  "Read-only serving through srcldagw and two replicas: Phase A is overhead-bound (batch window, dispatcher, HTTP, proxy hop), Phase B is CPU-bound fold-in across four processes on two cores.",

			SourceTopics: 128, LiveTopics: 40, WordsPerTopic: 60, ArticleTokens: 300,
			TrainDocs: 500, HeldoutDocs: 80, DocTokens: 250,
			Trainer: TrainSingle, SweepsPerSecond: 0.75,
			Topology: TopoGateway, InferRate: 300, BatchCallsPerSec: 6, FeedDocsPerSecond: 220,
			ChainDocs: 200, ChainSweeps: 5,
		},
		{
			Name: "serve_feed",
			Why:  "Writes beside reads: AppendDocs, snapshot, flat republish and watcher swaps compete with open-loop inference on the same daemon for two cores.",

			SourceTopics: 128, LiveTopics: 40, WordsPerTopic: 60, ArticleTokens: 300,
			TrainDocs: 500, HeldoutDocs: 80, DocTokens: 250,
			Trainer: TrainSingle, SweepsPerSecond: 0.75,
			Topology: TopoLearner, InferRate: 100, BatchCallsPerSec: 6, FeedDocsPerSecond: 900,
			ChainDocs: 400, ChainSweeps: 10,
		},
	}
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (Spec, error) {
	for _, s := range Workloads() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("unknown workload %q", name)
}

// Quick shrinks a spec to roughly a fiftieth of its work so the whole suite
// runs under `go test` in seconds. The regime is not preserved (T shrinks
// too), so quick results are stamped "comparable": false.
func (s Spec) Quick() Spec {
	s.SourceTopics = max(8, s.SourceTopics/8)
	s.LiveTopics = max(4, min(s.LiveTopics/4, s.SourceTopics))
	s.WordsPerTopic = max(3, s.WordsPerTopic/4)
	s.ArticleTokens = 100
	s.TrainDocs = max(80, s.TrainDocs/10)
	s.HeldoutDocs = 12
	s.DocTokens = 80
	s.ChainDocs = max(12, s.ChainDocs/12)
	s.ChainSweeps = 2
	s.InferRate = 250
	return s
}

// Sizes are the phase counts a spec yields for a given --seconds.
type Sizes struct {
	Sweeps     int // training sweeps, or dtrain epochs at staleness 1
	PhaseA     int // open-loop single-text requests
	PhaseB     int // closed-loop calls of PhaseBDocs documents
	FeedDocs   int // fed documents, a multiple of FeedBatchDocs
	Probes     int // output-check documents
	WarmupReqs int // untimed requests before Phase A
}

// PhaseBDocs is the number of documents in one Phase B call: srcldad's
// default -max-batch, so every call fills a dispatcher batch by itself.
// Smaller calls from exactly two closed-loop clients are bistable — whether
// the two calls happen to coalesce into one batch (no 2 ms window wait) or
// alternate decides a ~25% throughput difference that persists for a run.
const PhaseBDocs = 32

// FeedBatchDocs is the number of documents in one feed POST.
const FeedBatchDocs = 16

// minPhaseA keeps Phase A large enough for p95 under the ten-beyond rule.
const minPhaseA = 240

// Sizes scales the spec's rates by seconds.
func (s Spec) Sizes(seconds int, quick bool) Sizes {
	sec := float64(seconds)
	z := Sizes{
		Sweeps:     max(2, int(math.Round(s.SweepsPerSecond*sec))),
		PhaseA:     max(minPhaseA, int(s.InferRate*sec*0.25)),
		PhaseB:     max(4, int(s.BatchCallsPerSec*sec)),
		FeedDocs:   max(4, int(s.FeedDocsPerSecond*sec/FeedBatchDocs)) * FeedBatchDocs,
		Probes:     50,
		WarmupReqs: 60,
	}
	if s.Topology == TopoLearner {
		// Phase A runs until the feed is applied; this is only its ceiling,
		// about 2.5 times what the feed takes at the recorded speed.
		z.PhaseA = max(minPhaseA, int(s.InferRate*sec*3))
	}
	if quick {
		z.Sweeps = 5
		z.PhaseB = 4
		z.FeedDocs = 4 * FeedBatchDocs
		z.Probes = 10
		z.WarmupReqs = 10
	}
	return z
}
