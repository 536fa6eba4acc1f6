package sourcelda

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"sourcelda/internal/core"
	"sourcelda/internal/corpus"
	"sourcelda/internal/knowledge"
	"sourcelda/internal/persist"
	"sourcelda/internal/textproc"
)

// Runtime is a continuously learning Source-LDA chain: where Fit trains and
// exports an immutable Model, FitRuntime trains and keeps the Gibbs chain
// warm, so streamed documents can be folded in as real count updates
// (Append), point-in-time Models can be snapshotted for serving at any
// moment (Snapshot), and the chain can be consolidated by a full retrain
// from its own checkpoint (Compact). This collapses the old frozen/warm
// split — the same counts that back the latest published snapshot absorb
// the next streamed document.
//
// All methods are safe for concurrent use: one mutex serializes every chain
// mutation, which is exactly the discipline core.ChainRuntime requires.
// Determinism survives the wrapper — appends draw from the chain's
// checkpointed RNG stream, so SaveChain → LoadChainRuntime → Append yields
// the same chain the uninterrupted runtime would have.
type Runtime struct {
	mu       sync.Mutex
	c        *corpus.Corpus
	k        *knowledge.Source
	vocab    *textproc.Vocabulary
	opts     Options
	coreOpts core.Options
	chain    *core.Model
	appended int
	closed   bool
}

// ErrRuntimeClosed reports use of a Runtime after Close.
var ErrRuntimeClosed = errors.New("sourcelda: runtime is closed")

// FitRuntime trains Source-LDA exactly as Fit does — same options, same
// chain, same digest — but returns the live runtime instead of discarding
// the chain behind an immutable Model. Progress reporting and training
// checkpoints work as in Fit. The runtime holds a private copy of the
// corpus document list, so appended documents never mutate the caller's
// Corpus handle. Close the runtime when done.
func FitRuntime(c *Corpus, k *KnowledgeSource, opts Options) (*Runtime, error) {
	if c == nil || k == nil {
		return nil, errors.New("sourcelda: nil corpus or knowledge source")
	}
	private := &corpus.Corpus{
		Docs:  append([]*corpus.Document(nil), c.c.Docs...),
		Vocab: c.c.Vocab,
	}
	m, coreOpts, err := train(&Corpus{c: private}, k, opts, nil)
	if err != nil {
		return nil, err
	}
	return &Runtime{
		c:        private,
		k:        k.s,
		vocab:    private.Vocab,
		opts:     opts,
		coreOpts: coreOpts,
		chain:    m,
	}, nil
}

// Append tokenizes each text against the training vocabulary, drops
// out-of-vocabulary tokens, and folds the surviving documents into the warm
// chain with foldInSweeps document-local Gibbs sweeps each (see
// core.ChainRuntime.AppendDocs). Texts left with no in-vocabulary tokens
// are skipped, mirroring inference. It returns how many documents were
// actually appended.
func (rt *Runtime) Append(texts []string, foldInSweeps int) (int, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return 0, ErrRuntimeClosed
	}
	docs := make([]*corpus.Document, 0, len(texts))
	for _, text := range texts {
		ids := encodeForInference(rt.vocab, text)
		words := make([]int, 0, len(ids))
		for _, id := range ids {
			if id >= 0 {
				words = append(words, id)
			}
		}
		if len(words) == 0 {
			continue
		}
		docs = append(docs, &corpus.Document{
			Name:  fmt.Sprintf("fed-%d", rt.appended+len(docs)),
			Words: words,
		})
	}
	if len(docs) == 0 {
		return 0, nil
	}
	if err := rt.chain.AppendDocs(docs, foldInSweeps); err != nil {
		return 0, err
	}
	rt.appended += len(docs)
	return len(docs), nil
}

// Snapshot publishes the chain's current state as an immutable Model — the
// republish primitive of continuous learning: a point-in-time view of the
// very counts later Appends keep updating. Like every Model it builds its
// inference view from its Φ on first use, which yields the same conditionals
// core.ChainRuntime.Freeze would. The snapshot shares nothing mutable with
// the runtime.
func (rt *Runtime) Snapshot() (*Model, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return nil, ErrRuntimeClosed
	}
	return &Model{res: rt.chain.Result(), vocab: rt.vocab, source: rt.k, info: trainedInfo(rt.coreOpts)}, nil
}

// NewInferrer snapshots the chain and opens a reusable inference session
// over the snapshot; see Model.NewInferrer.
func (rt *Runtime) NewInferrer(opts InferOptions) (*Inferrer, error) {
	m, err := rt.Snapshot()
	if err != nil {
		return nil, err
	}
	return m.NewInferrer(opts)
}

// Compact consolidates the chain: it checkpoints, rebuilds a fresh chain
// from the checkpoint (count slabs recomputed exactly from the
// assignments), and retrains it for the given number of full-corpus sweeps
// so appended documents finally influence the rest of the corpus — the
// heavyweight counterpart to Append's document-local fold-in. The rebuilt
// chain continues the same checkpoint/digest lineage: its options digest is
// unchanged, and with sweeps == 0 its state is bit-identical to the chain
// it replaced.
func (rt *Runtime) Compact(sweeps int) error {
	if sweeps < 0 {
		return fmt.Errorf("sourcelda: compaction sweep count %d is negative", sweeps)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return ErrRuntimeClosed
	}
	fresh, err := core.Restore(rt.c, rt.k, rt.coreOpts, rt.chain.Checkpoint())
	if err != nil {
		return err
	}
	if sweeps > 0 {
		fresh.Run(sweeps)
	}
	old := rt.chain
	rt.chain = fresh
	old.Close()
	return nil
}

// HeldOutPerplexity scores held-out raw texts against the chain's current
// state (lower is better; see core.ChainRuntime.HeldOutPerplexity).
// Out-of-vocabulary tokens are dropped; texts with no surviving tokens are
// skipped. Comparing the value before and after feeding the same texts
// measures what continuous learning bought.
func (rt *Runtime) HeldOutPerplexity(texts []string, iterations, burnIn int, seed int64) (float64, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return 0, ErrRuntimeClosed
	}
	test := corpus.NewWithVocab(rt.vocab)
	for i, text := range texts {
		ids := encodeForInference(rt.vocab, text)
		words := make([]int, 0, len(ids))
		for _, id := range ids {
			if id >= 0 {
				words = append(words, id)
			}
		}
		if len(words) == 0 {
			continue
		}
		test.AddDocument(&corpus.Document{Name: fmt.Sprintf("held-out-%d", i), Words: words})
	}
	return rt.chain.HeldOutPerplexity(test, iterations, burnIn, seed)
}

// Docs returns the number of documents the chain currently covers,
// including appended ones.
func (rt *Runtime) Docs() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.chain.NumDocs()
}

// AppendedDocs returns how many documents Append has folded in.
func (rt *Runtime) AppendedDocs() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.appended
}

// Sweeps returns the number of completed full-corpus sweeps.
func (rt *Runtime) Sweeps() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.chain.Sweeps()
}

// ChainDigest returns the 16-hex-digit chain-options fingerprint — constant
// across Append, Compact and SaveChain/LoadChainRuntime round-trips, which
// is what makes a republished bundle traceable to its training lineage.
func (rt *Runtime) ChainDigest() string {
	return fmt.Sprintf("%016x", rt.coreOpts.ChainDigest())
}

// Close releases the chain. Further method calls fail with ErrRuntimeClosed.
func (rt *Runtime) Close() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return nil
	}
	rt.closed = true
	rt.chain.Close()
	return nil
}

// chainArchiveFormat tags SaveChain output.
const chainArchiveFormat = "sourcelda-chain-v1"

// chainArchiveOptions mirrors the chain-shaping subset of Options — the
// fields a loaded runtime needs to rebuild the identical chain. The func
// fields (Progress, Checkpoint) are deliberately absent: they shape
// reporting, not the chain.
type chainArchiveOptions struct {
	FreeTopics      int          `json:"free_topics"`
	Alpha           float64      `json:"alpha,omitempty"`
	Beta            float64      `json:"beta,omitempty"`
	Lambda          *LambdaPrior `json:"lambda,omitempty"`
	Iterations      int          `json:"iterations,omitempty"`
	Seed            int64        `json:"seed,omitempty"`
	Threads         int          `json:"threads,omitempty"`
	Sampler         Sampler      `json:"sampler,omitempty"`
	Shards          int          `json:"shards,omitempty"`
	TraceLikelihood bool         `json:"trace_likelihood,omitempty"`
}

type chainArchiveHeader struct {
	Format   string              `json:"format"`
	Options  chainArchiveOptions `json:"options"`
	Appended int                 `json:"appended_docs"`
}

func (o chainArchiveOptions) facade() Options {
	return Options{
		FreeTopics:      o.FreeTopics,
		Alpha:           o.Alpha,
		Beta:            o.Beta,
		Lambda:          o.Lambda,
		Iterations:      o.Iterations,
		Seed:            o.Seed,
		Threads:         o.Threads,
		Sampler:         o.Sampler,
		Shards:          o.Shards,
		TraceLikelihood: o.TraceLikelihood,
	}
}

// writeSection frames one archive section as a little-endian uint64 length
// plus payload, so binary sections (the checkpoint frame) can follow JSON
// ones without delimiter ambiguity.
func writeSection(w io.Writer, payload []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// maxChainSectionBytes bounds a single archive section (1 GiB) so a
// corrupted length prefix cannot trigger an absurd allocation.
const maxChainSectionBytes = 1 << 30

func readSection(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint64(hdr[:])
	if n > maxChainSectionBytes {
		return nil, fmt.Errorf("sourcelda: chain archive section of %d bytes exceeds the %d-byte limit", n, maxChainSectionBytes)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// SaveChain archives the complete learning state — corpus (including
// appended documents), knowledge source, chain-shaping options and a full
// chain checkpoint — as one gzip stream. LoadChainRuntime reconstructs a
// runtime that continues this chain bit for bit, so a serving process can
// hand its warm chain to a successor instead of retraining.
func (rt *Runtime) SaveChain(w io.Writer) error {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return ErrRuntimeClosed
	}
	ck := rt.chain.Checkpoint()
	docs := append([]*corpus.Document(nil), rt.c.Docs...)
	header := chainArchiveHeader{
		Format: chainArchiveFormat,
		Options: chainArchiveOptions{
			FreeTopics:      rt.opts.FreeTopics,
			Alpha:           rt.opts.Alpha,
			Beta:            rt.opts.Beta,
			Lambda:          rt.opts.Lambda,
			Iterations:      rt.opts.Iterations,
			Seed:            rt.opts.Seed,
			Threads:         rt.opts.Threads,
			Sampler:         rt.opts.Sampler,
			Shards:          rt.opts.Shards,
			TraceLikelihood: rt.opts.TraceLikelihood,
		},
		Appended: rt.appended,
	}
	src := rt.k
	vocab := rt.vocab
	rt.mu.Unlock()

	snapshot := &corpus.Corpus{Docs: docs, Vocab: vocab}
	gz := gzip.NewWriter(w)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(header); err != nil {
		return err
	}
	if err := writeSection(gz, buf.Bytes()); err != nil {
		return err
	}
	buf.Reset()
	if err := persist.SaveCorpus(&buf, snapshot); err != nil {
		return err
	}
	if err := writeSection(gz, buf.Bytes()); err != nil {
		return err
	}
	buf.Reset()
	if err := persist.SaveSource(&buf, src); err != nil {
		return err
	}
	if err := writeSection(gz, buf.Bytes()); err != nil {
		return err
	}
	buf.Reset()
	if err := persist.SaveCheckpoint(&buf, ck); err != nil {
		return err
	}
	if err := writeSection(gz, buf.Bytes()); err != nil {
		return err
	}
	return gz.Close()
}

// SaveChainFile writes a chain archive atomically (persist.WriteFileAtomic).
func (rt *Runtime) SaveChainFile(path string) error {
	return persist.WriteFileAtomic(path, rt.SaveChain)
}

// LoadChainRuntime reconstructs a warm runtime from a SaveChain archive.
// The restored chain continues the archived one bit for bit: same counts,
// same assignments, same RNG stream positions, same options digest.
func LoadChainRuntime(r io.Reader) (*Runtime, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("sourcelda: chain archive: %w", err)
	}
	defer gz.Close()
	headerRaw, err := readSection(gz)
	if err != nil {
		return nil, fmt.Errorf("sourcelda: chain archive header: %w", err)
	}
	var header chainArchiveHeader
	if err := json.Unmarshal(headerRaw, &header); err != nil {
		return nil, fmt.Errorf("sourcelda: chain archive header: %w", err)
	}
	if header.Format != chainArchiveFormat {
		return nil, fmt.Errorf("sourcelda: unsupported chain archive format %q", header.Format)
	}
	corpusRaw, err := readSection(gz)
	if err != nil {
		return nil, fmt.Errorf("sourcelda: chain archive corpus: %w", err)
	}
	c, err := persist.LoadCorpus(bytes.NewReader(corpusRaw))
	if err != nil {
		return nil, err
	}
	sourceRaw, err := readSection(gz)
	if err != nil {
		return nil, fmt.Errorf("sourcelda: chain archive source: %w", err)
	}
	src, err := persist.LoadSource(bytes.NewReader(sourceRaw))
	if err != nil {
		return nil, err
	}
	ckRaw, err := readSection(gz)
	if err != nil {
		return nil, fmt.Errorf("sourcelda: chain archive checkpoint: %w", err)
	}
	ck, err := persist.LoadCheckpoint(bytes.NewReader(ckRaw))
	if err != nil {
		return nil, err
	}
	opts := header.Options.facade()
	coreOpts, err := CoreOptions(&Corpus{c: c}, &KnowledgeSource{s: src}, opts)
	if err != nil {
		return nil, fmt.Errorf("sourcelda: chain archive options: %w", err)
	}
	chain, err := core.Restore(c, src, coreOpts, ck)
	if err != nil {
		return nil, err
	}
	return &Runtime{
		c:        c,
		k:        src,
		vocab:    c.Vocab,
		opts:     opts,
		coreOpts: coreOpts,
		chain:    chain,
		appended: header.Appended,
	}, nil
}

// LoadChainRuntimeFile loads a chain archive from disk.
func LoadChainRuntimeFile(path string) (*Runtime, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadChainRuntime(f)
}
