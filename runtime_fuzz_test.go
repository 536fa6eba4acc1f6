package sourcelda

import (
	"bytes"
	"compress/gzip"
	"io"
	"testing"
)

// FuzzLoadChainRuntime feeds LoadChainRuntime arbitrary archive contents.
// The input is the archive's uncompressed stream, which the target gzips, so
// mutations reach the header, corpus, source and checkpoint sections instead
// of failing gzip's checksum. The header selects the kernel, so the corpus
// seeds one archive per kernel, plus a header saying auto over a serial
// chain. LoadChainRuntime must never panic, and an archive it accepts must
// restore: it snapshots, and saved again it reloads as the same chain.
func FuzzLoadChainRuntime(f *testing.F) {
	c, k := buildFixture(f)
	for _, s := range []struct{ trained, header Sampler }{
		{SamplerSerial, SamplerSerial},
		{SamplerSparse, SamplerSparse},
		{SamplerSerial, SamplerAuto},
	} {
		rt, err := FitRuntime(c, k, Options{FreeTopics: 1, Iterations: 3, Seed: 1, Sampler: s.trained})
		if err != nil {
			f.Fatal(err)
		}
		rt.opts.Sampler = s.header
		var archive bytes.Buffer
		if err := rt.SaveChain(&archive); err != nil {
			f.Fatal(err)
		}
		rt.Close()
		gz, err := gzip.NewReader(&archive)
		if err != nil {
			f.Fatal(err)
		}
		raw, err := io.ReadAll(gz)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var archive bytes.Buffer
		gz := gzip.NewWriter(&archive)
		gz.Write(raw)
		gz.Close()
		rt, err := LoadChainRuntime(&archive)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		defer rt.Close()
		if _, err := rt.Snapshot(); err != nil {
			t.Fatalf("an accepted archive does not snapshot: %v", err)
		}
		var again bytes.Buffer
		if err := rt.SaveChain(&again); err != nil {
			t.Fatalf("an accepted archive does not save: %v", err)
		}
		back, err := LoadChainRuntime(&again)
		if err != nil {
			t.Fatalf("an accepted archive, saved again, does not restore: %v", err)
		}
		defer back.Close()
		if back.ChainDigest() != rt.ChainDigest() || back.Sweeps() != rt.Sweeps() || back.Docs() != rt.Docs() {
			t.Fatalf("reloaded chain %s at sweep %d over %d docs, saved %s at sweep %d over %d docs",
				back.ChainDigest(), back.Sweeps(), back.Docs(), rt.ChainDigest(), rt.Sweeps(), rt.Docs())
		}
	})
}
