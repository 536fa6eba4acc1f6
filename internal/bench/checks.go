package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"

	"sourcelda"
	"sourcelda/internal/persist"
	"sourcelda/internal/textproc"
)

// ServerInfer is the fold-in schedule cmd/srcldad applies on its default
// flags (-burnin 20 -samples 10 -seed 42). The in-process probe check must
// use the same one to reproduce a response bit for bit.
var ServerInfer = sourcelda.InferOptions{BurnIn: 20, Samples: 10, Seed: 42}

// checkBundle loads the produced bundle and runs the publish checks: it
// loads, it has B + FreeTopics topics, and its held-out perplexity is finite
// and below the unigram baseline. It returns the perplexity and the baseline.
func (r *run) checkBundle(path string) (ppl, unigram float64, err error) {
	m, err := sourcelda.LoadBundleFile(path)
	r.check("bundle_loads", err)
	if err != nil {
		return 0, 0, err
	}
	defer m.Close()
	var topicsErr error
	if want := r.spec.SourceTopics + FreeTopics; m.NumTopics() != want {
		topicsErr = fmt.Errorf("bundle has %d topics, want %d", m.NumTopics(), want)
	}
	r.check("bundle_topic_count", topicsErr)

	ppl, unigram, err = heldoutPerplexity(m, r.in.HeldoutTexts, r.in.TrainTexts)
	if err == nil && !(ppl < unigram) {
		err = fmt.Errorf("held-out perplexity %.1f is not below the unigram baseline %.1f", ppl, unigram)
	}
	r.check("perplexity_below_unigram", err)
	r.logf("publish: %d topics, held-out perplexity %.1f (unigram %.1f)", m.NumTopics(), ppl, unigram)
	return ppl, unigram, nil
}

// heldoutPerplexity is document-completion perplexity: each held-out
// document's first half is folded in (seeded façade InferBatch) for θ, and
// its second half is scored under Σ_t θ_t φ_t(w). Deterministic for a given
// bundle. The unigram baseline scores the same second halves under add-one
// smoothed training word frequencies.
func heldoutPerplexity(m *sourcelda.Model, heldout, train []string) (ppl, unigram float64, err error) {
	known := func(text string) []string {
		var out []string
		for _, tok := range textproc.Tokenize(text) {
			// The façade exposes vocabulary membership only as a count.
			if m.CountKnownTokens(tok) == 1 {
				out = append(out, tok)
			}
		}
		return out
	}
	firsts := make([]string, len(heldout))
	seconds := make([][]string, len(heldout))
	for i, text := range heldout {
		toks := known(text)
		firsts[i] = strings.Join(toks[:len(toks)/2], " ")
		seconds[i] = toks[len(toks)/2:]
	}
	thetas, err := m.InferBatch(firsts, ServerInfer)
	if err != nil {
		return 0, 0, err
	}

	// φ by model topic index; flat bundles materialize rows on demand.
	topics := m.Topics()
	slices.SortFunc(topics, func(a, b sourcelda.Topic) int { return a.Index - b.Index })
	phiOf := map[string][]float64{}
	phi := func(word string) []float64 {
		row, ok := phiOf[word]
		if !ok {
			row = make([]float64, len(topics))
			for t, topic := range topics {
				row[t] = topic.Probability(word)
			}
			phiOf[word] = row
		}
		return row
	}

	freq := map[string]float64{}
	var total float64
	for _, text := range train {
		for _, tok := range textproc.Tokenize(text) {
			freq[tok]++
			total++
		}
	}
	denom := total + float64(len(freq)) + 1

	var logLik, logUni float64
	var n int
	for i, toks := range seconds {
		if thetas[i] == nil {
			continue
		}
		for _, w := range toks {
			var p float64
			for t, pw := range phi(w) {
				p += thetas[i].Topics[t] * pw
			}
			logLik += math.Log(p)
			logUni += math.Log((freq[w] + 1) / denom)
			n++
		}
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("no held-out tokens in the model vocabulary")
	}
	ppl = math.Exp(-logLik / float64(n))
	unigram = math.Exp(-logUni / float64(n))
	if math.IsNaN(ppl) || math.IsInf(ppl, 0) {
		return ppl, unigram, fmt.Errorf("held-out perplexity is %v", ppl)
	}
	return ppl, unigram, nil
}

// checkDtrainCheckpoint decodes the coordinator's assembled checkpoint and
// verifies one in-range topic assignment per token. It returns the token
// count, which is the number of tokens the cluster parsed.
func (r *run) checkDtrainCheckpoint(path string) (int, error) {
	ck, err := persist.LoadCheckpointFile(path)
	if err != nil {
		return 0, err
	}
	var tokens int
	for _, n := range ck.DocLengths {
		tokens += int(n)
	}
	if len(ck.Z) != tokens {
		return tokens, fmt.Errorf("checkpoint has %d assignments for %d tokens", len(ck.Z), tokens)
	}
	T := int32(ck.NumFreeTopics + ck.NumSourceTopics)
	if want := int32(r.spec.SourceTopics + FreeTopics); T != want {
		return tokens, fmt.Errorf("checkpoint has %d topics, want %d", T, want)
	}
	for i, z := range ck.Z {
		if z < 0 || z >= T {
			return tokens, fmt.Errorf("assignment %d is topic %d, outside [0,%d)", i, z, T)
		}
	}
	if ck.Sweep != r.sizes.Sweeps {
		return tokens, fmt.Errorf("checkpoint is at sweep %d, want %d", ck.Sweep, r.sizes.Sweeps)
	}
	return tokens, nil
}

// inferResponse is the part of a /v1/infer single-text response the probe
// check compares.
type inferResponse struct {
	Result struct {
		Mixture       []float64 `json:"mixture"`
		KnownTokens   int       `json:"known_tokens"`
		UnknownTokens int       `json:"unknown_tokens"`
	} `json:"result"`
}

// checkProbes verifies that the probe documents' responses are byte-identical
// across every serving path (direct to each replica, through the gateway) and
// equal to an in-process Model.Infer on the same bundle file.
func (r *run) checkProbes(bundlePath string, byPath map[string][]Outcome) error {
	m, err := sourcelda.LoadBundleFile(bundlePath)
	if err != nil {
		return err
	}
	defer m.Close()
	var ref []Outcome
	for path, outs := range byPath {
		for i, o := range outs {
			if o.Err != nil {
				return fmt.Errorf("probe %d via %s: %w", i, path, o.Err)
			}
		}
		if ref == nil {
			ref = outs
			continue
		}
		for i := range outs {
			if !bytes.Equal(outs[i].Body, ref[i].Body) {
				return fmt.Errorf("probe %d via %s differs from another serving path", i, path)
			}
		}
	}
	for i, o := range ref {
		var got inferResponse
		if err := json.Unmarshal(o.Body, &got); err != nil {
			return fmt.Errorf("probe %d: %w", i, err)
		}
		want, err := m.Infer(r.in.ProbeTexts[i], ServerInfer)
		if err != nil {
			return fmt.Errorf("probe %d in-process: %w", i, err)
		}
		if !slices.Equal(got.Result.Mixture, want.Topics) ||
			got.Result.KnownTokens != want.KnownTokens || got.Result.UnknownTokens != want.UnknownTokens {
			return fmt.Errorf("probe %d: served mixture differs from in-process Model.Infer on the same bundle", i)
		}
	}
	return nil
}
