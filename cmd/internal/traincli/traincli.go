// Package traincli is the front end the two training commands share: srclda
// and srcldactl load their data through LoadData and turn their chain flags
// into façade options through ChainOptions, so the same flags name the same
// chain — and the same checkpoint digest — in both, and sourcelda.CoreOptions
// stays the only place those options become core.Options.
package traincli

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sourcelda"
	"sourcelda/internal/core"
	"sourcelda/internal/corpus"
	"sourcelda/internal/knowledge"
	"sourcelda/internal/synth"
	"sourcelda/internal/textproc"
)

// ChainOptions maps the chain flags (-free, -lambda, -mu, -sigma, -sampler,
// -shards, -threads, -seed) onto façade options. lambda in [0,1] fixes the
// exponent; a negative lambda integrates λ out under N(mu, sigma). sampler is
// auto, serial or sparse; a retired kernel's name fails with
// core.ErrRetiredSampler.
func ChainOptions(free int, lambda, mu, sigma float64, sampler string, shards, threads int, seed int64) (sourcelda.Options, error) {
	opts := sourcelda.Options{
		FreeTopics: free,
		Lambda:     &sourcelda.LambdaPrior{Mu: mu, Sigma: sigma},
		Seed:       seed,
		Shards:     shards,
		Threads:    threads,
	}
	if lambda >= 0 {
		opts.Lambda = &sourcelda.LambdaPrior{Fixed: true, Lambda: lambda}
	}
	kind, ok := map[string]sourcelda.Sampler{
		"auto":   sourcelda.SamplerAuto,
		"serial": sourcelda.SamplerSerial,
		"sparse": sourcelda.SamplerSparse,
	}[sampler]
	if !ok {
		// core.ParseSampler tells a retired kernel's name from a typo.
		_, err := core.ParseSampler(sampler)
		return sourcelda.Options{}, fmt.Errorf("-sampler (auto, serial, or sparse): %w", err)
	}
	opts.Sampler = kind
	return opts, nil
}

// LoadData reads the corpus (every *.txt file is one document) and the
// knowledge source (every *.txt file is one article, labeled by its file
// name) from directories, or builds the synthetic Reuters-like demo when
// both paths are empty, so the commands run out of the box.
func LoadData(corpusDir, sourceDir string, seed int64) (*corpus.Corpus, *knowledge.Source, error) {
	if corpusDir == "" && sourceDir == "" {
		data, err := synth.ReutersLike(synth.ReutersOptions{
			NumCategories: 30, LiveCategories: 12, NumDocs: 200, AvgDocLen: 60, Seed: seed,
		})
		if err != nil {
			return nil, nil, err
		}
		return data.Corpus, data.Source, nil
	}
	if corpusDir == "" || sourceDir == "" {
		return nil, nil, fmt.Errorf("-corpus and -source must be given together")
	}
	stop := textproc.DefaultStopwords()
	c := corpus.New()
	if err := eachTxt(corpusDir, func(name, text string) {
		c.AddText(name, text, stop)
	}); err != nil {
		return nil, nil, err
	}
	var articles []*knowledge.Article
	if err := eachTxt(sourceDir, func(name, text string) {
		label := strings.TrimSuffix(name, filepath.Ext(name))
		articles = append(articles, knowledge.NewArticleFromText(label, text, c.Vocab, stop, true))
	}); err != nil {
		return nil, nil, err
	}
	src, err := knowledge.NewSource(articles)
	if err != nil {
		return nil, nil, err
	}
	return c, src, nil
}

func eachTxt(dir string, fn func(name, text string)) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	found := false
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".txt") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		fn(e.Name(), string(data))
		found = true
	}
	if !found {
		return fmt.Errorf("no *.txt files in %s", dir)
	}
	return nil
}
