package sourcelda

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"sourcelda/internal/core"
	"sourcelda/internal/persist"
)

// SaveCorpus writes the corpus (vocabulary, documents, and ground-truth
// topics when present) as versioned JSON.
func SaveCorpus(w io.Writer, c *Corpus) error {
	if c == nil {
		return errors.New("sourcelda: nil corpus")
	}
	return persist.SaveCorpus(w, c.c)
}

// LoadCorpus reads a corpus written by SaveCorpus.
func LoadCorpus(r io.Reader) (*Corpus, error) {
	c, err := persist.LoadCorpus(r)
	if err != nil {
		return nil, err
	}
	return &Corpus{c: c}, nil
}

// SaveKnowledgeSource writes the knowledge source as versioned JSON. Word
// ids refer to the companion corpus's vocabulary, so save and load the two
// together.
func SaveKnowledgeSource(w io.Writer, k *KnowledgeSource) error {
	if k == nil {
		return errors.New("sourcelda: nil knowledge source")
	}
	return persist.SaveSource(w, k.s)
}

// LoadKnowledgeSource reads a source written by SaveKnowledgeSource.
func LoadKnowledgeSource(r io.Reader) (*KnowledgeSource, error) {
	s, err := persist.LoadSource(r)
	if err != nil {
		return nil, err
	}
	return &KnowledgeSource{s: s}, nil
}

// SaveModel writes a fitted model's snapshot (topic-word and document-topic
// distributions, labels, statistics) as versioned JSON. Assignments and
// traces are not serialized.
func SaveModel(w io.Writer, m *Model) error {
	if m == nil {
		return errors.New("sourcelda: nil model")
	}
	if m.res.Phi == nil {
		return errors.New("sourcelda: model was loaded from a flat bundle and carries no training snapshot to save")
	}
	return persist.SaveResult(w, m.res)
}

// LoadModel reads a snapshot written by SaveModel, reattaching it to the
// corpus and knowledge source it was trained with (needed to render words
// and labels). The snapshot is cross-validated against the pair — topic-word
// row widths against the vocabulary, document-topic row widths and label
// counts against the topic set, source indices against the article count —
// so a mismatched snapshot fails here instead of panicking later.
func LoadModel(r io.Reader, c *Corpus, k *KnowledgeSource) (*Model, error) {
	if c == nil || k == nil {
		return nil, errors.New("sourcelda: nil corpus or knowledge source")
	}
	res, err := persist.LoadResult(r)
	if err != nil {
		return nil, err
	}
	if err := persist.ValidateResult(res, c.c.VocabSize(), k.s.Len()); err != nil {
		return nil, fmt.Errorf("sourcelda: snapshot does not match the corpus/knowledge source: %w", err)
	}
	return &Model{res: res, vocab: c.c.Vocab, source: k.s}, nil
}

// SaveBundle writes the model as a single self-contained serving artifact —
// vocabulary, knowledge source and fitted snapshot in one gzip-compressed
// versioned archive. A bundle is everything cmd/srcldad (or LoadBundle)
// needs; no companion corpus or source files are required at load time.
// The model's provenance (BundleInfo) is embedded as written; use
// SaveBundleNamed to assign a registry name and version at save time.
func SaveBundle(w io.Writer, m *Model) error {
	if m == nil {
		return errors.New("sourcelda: nil model")
	}
	return SaveBundleNamed(w, m, m.info.Name, m.info.Version)
}

// SaveBundleNamed is SaveBundle with the bundle's registry identity
// assigned: name is the logical model name a multi-model daemon serves it
// under and version distinguishes this build from earlier ones (both may be
// empty). The model's chain digest and training time ride along, so the
// deployed artifact stays traceable to the run that produced it.
func SaveBundleNamed(w io.Writer, m *Model, name, version string) error {
	if m == nil {
		return errors.New("sourcelda: nil model")
	}
	if m.source == nil || m.res.Phi == nil {
		return errors.New("sourcelda: model was loaded from a flat bundle, which does not carry the knowledge source or training mixtures; keep the original JSON bundle (or the flat file itself) instead")
	}
	return persist.SaveBundleMeta(w, m.vocab.Words(), m.source, m.res, m.bundleMeta(name, version))
}

// bundleMeta is the provenance a saved bundle embeds: the given registry
// identity plus the chain digest and training time Fit or Resume stamped.
func (m *Model) bundleMeta(name, version string) *persist.BundleMeta {
	return &persist.BundleMeta{
		Name:        name,
		Version:     version,
		ChainDigest: m.info.ChainDigest,
		TrainedAt:   m.info.TrainedAt,
	}
}

// SaveBundleFlat writes the model in the flat, memory-mappable serving
// format: a binary layout whose topic-word conditional slab is stored
// exactly as the inference engine reads it, so LoadBundleFile can mmap the
// file and serve with O(1) load time and near-zero resident cost per cold
// model. Flat bundles are a serving artifact — they do not embed the
// knowledge source or training mixtures, so keep the JSON bundle (or
// snapshot) for retraining and analysis. A flat and a JSON bundle of the
// same model produce bit-identical inference results.
func SaveBundleFlat(w io.Writer, m *Model) error {
	if m == nil {
		return errors.New("sourcelda: nil model")
	}
	return SaveBundleFlatNamed(w, m, m.info.Name, m.info.Version)
}

// SaveBundleFlatNamed is SaveBundleFlat with the registry identity assigned,
// exactly as SaveBundleNamed does for the JSON format.
func SaveBundleFlatNamed(w io.Writer, m *Model, name, version string) error {
	if m == nil {
		return errors.New("sourcelda: nil model")
	}
	if m.source == nil || m.res.Phi == nil {
		return errors.New("sourcelda: model was loaded from a flat bundle; it is already in the flat format")
	}
	return persist.SaveBundleFlat(w, m.vocab.Words(), m.source, m.res, m.bundleMeta(name, version))
}

// LoadBundle reads a bundle written by SaveBundle (gzip JSON, plain JSON, or
// the flat format — sniffed by magic) and returns a fully self-contained
// model: Topics, Infer and InferBatch all work without the training corpus.
// For JSON bundles DocumentTopics still reports the training documents'
// mixtures captured in the snapshot; flat bundles are serving artifacts and
// carry none. Flat input is read eagerly and fully verified here — use
// LoadBundleFile for the zero-copy mmap path. Embedded provenance is
// available via Model.BundleInfo (zero for bundles written before metadata
// existed).
func LoadBundle(r io.Reader) (*Model, error) {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(len(persist.FlatBundleMagic)); err == nil && persist.IsFlatBundle(magic) {
		fb, err := persist.LoadBundleFlat(br)
		if err != nil {
			return nil, err
		}
		return modelFromFlat(fb)
	}
	b, err := persist.LoadBundle(br)
	if err != nil {
		return nil, err
	}
	m := &Model{res: b.Result, vocab: b.Vocab, source: b.Source}
	if b.Meta != nil {
		m.info = bundleInfoFromMeta(b.Meta)
	}
	return m, nil
}

// LoadBundleFile loads a bundle from disk, preferring the cheapest path its
// format allows: a flat bundle is memory-mapped (O(1) load, conditionals
// served straight from the page cache, pages shared across processes), while
// a gzip/plain-JSON bundle is decoded as LoadBundle does. The caller should
// Close the returned model when done serving it; Close is a no-op for
// non-mapped models, and for mapped ones the unmap waits for every Inferrer
// to drain, so closing behind a hot swap is always safe.
func LoadBundleFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var magic [8]byte
	n, _ := io.ReadFull(f, magic[:])
	if persist.IsFlatBundle(magic[:n]) {
		f.Close()
		fb, err := persist.LoadBundleMapped(path)
		if err != nil {
			return nil, err
		}
		return modelFromFlat(fb)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	defer f.Close()
	return LoadBundle(f)
}

// modelFromFlat wraps a loaded flat bundle as a serving model. The frozen
// inference view adopts the bundle's cond slab directly (no copy); when the
// slab lives in mapped pages the model carries the reference-counted unmap
// obligation described on Model.Close.
func modelFromFlat(fb *persist.FlatBundle) (*Model, error) {
	frozen, err := core.FrozenFromCond(fb.Cond, fb.T, fb.V, fb.Labels, fb.SourceIndices, fb.Alpha)
	if err != nil {
		fb.Close()
		return nil, err
	}
	res := &core.Result{
		Labels:         fb.Labels,
		SourceIndices:  fb.SourceIndices,
		NumFreeTopics:  fb.NumFreeTopics,
		Alpha:          fb.Alpha,
		TokenCounts:    fb.TokenCounts,
		DocFrequencies: fb.DocFrequencies,
	}
	m := &Model{res: res, vocab: fb.Vocab}
	if fb.Meta != nil {
		m.info = bundleInfoFromMeta(fb.Meta)
	}
	// Pre-seed the frozen view: engine() must never rebuild it from res
	// (res.Phi is nil) and every Inferrer must share the adopted slab.
	m.frozenOnce.Do(func() { m.frozen = frozen })
	if fb.Mapped {
		m.backing = &mapping{refs: refs{onDrain: func() { fb.Close() }}, fb: fb}
	}
	return m, nil
}

func bundleInfoFromMeta(meta *persist.BundleMeta) BundleInfo {
	return BundleInfo{
		Name:        meta.Name,
		Version:     meta.Version,
		ChainDigest: meta.ChainDigest,
		TrainedAt:   meta.TrainedAt,
	}
}

// TuningResult reports a (µ, σ) grid search (§III-C5a: select the prior by
// held-out perplexity).
type TuningResult struct {
	// Mu and Sigma are the selected λ-prior parameters.
	Mu, Sigma float64
	// Perplexity is the selected pair's held-out perplexity.
	Perplexity float64
	// Surface lists every evaluated (µ, σ, perplexity) triple.
	Surface [][3]float64
}

// SelectLambdaPrior grid-searches the λ prior by held-out perplexity, the
// procedure the paper uses to set µ = 0.7, σ = 0.3 for its Reuters
// experiment. Pass zero-length slices to use the default grid.
func SelectLambdaPrior(c *Corpus, k *KnowledgeSource, opts Options, mus, sigmas []float64) (*TuningResult, error) {
	// The grid supplies (µ, σ); everything else — priors, kernel, sweep mode,
	// smoothing on — is what Fit would train under the same options.
	opts.Lambda = nil
	base, err := CoreOptions(c, k, opts)
	if err != nil {
		return nil, err
	}
	sel, err := core.SelectParameters(c.c, k.s, base, core.ParameterGrid{
		Mus:    mus,
		Sigmas: sigmas,
		Seed:   opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	out := &TuningResult{
		Mu:         sel.Best.Mu,
		Sigma:      sel.Best.Sigma,
		Perplexity: sel.Best.Perplexity,
	}
	for _, cand := range sel.Candidates {
		out.Surface = append(out.Surface, [3]float64{cand.Mu, cand.Sigma, cand.Perplexity})
	}
	return out, nil
}

// Vocabulary returns the corpus's interned words in id order.
func (c *Corpus) Vocabulary() []string {
	words := c.c.Vocab.Words()
	out := make([]string, len(words))
	copy(out, words)
	return out
}
