package core

import (
	"strings"
	"testing"
)

// TestSetGlobalCountsZeroOverlayIsIdentity pins the N=1 distributed
// contract: installing global counts that equal the chain's own counts (the
// overlay is zero) must not change the sampled sequence — in every sweep
// mode and with the sparse kernel, whose nonzero lists are rebuilt by the
// install.
func TestSetGlobalCountsZeroOverlayIsIdentity(t *testing.T) {
	data := sweepFixture(t)
	base := Options{
		NumFreeTopics: 3, Alpha: 0.2, Beta: 0.01,
		LambdaMode: LambdaIntegrated, Mu: 0.7, Sigma: 0.3,
		QuadraturePoints: 5, UseSmoothing: true,
		Iterations: 12, Seed: 99,
	}
	variants := []struct {
		name string
		set  func(*Options)
	}{
		{"sequential", func(o *Options) {}},
		{"sequential-sparse", func(o *Options) { o.Sampler = SamplerSparse }},
		{"sharded-multi", func(o *Options) { o.SweepMode = SweepShardedDocs; o.Shards = 4; o.Threads = 4 }},
	}
	for _, v := range variants {
		opts := base
		v.set(&opts)

		plain, err := NewModel(data.Corpus, data.Source, opts)
		if err != nil {
			t.Fatal(err)
		}
		plain.Run(12)

		overlaid, err := NewModel(data.Corpus, data.Source, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i += 4 {
			// own counts as the "global" slab: external is identically zero.
			if err := overlaid.SetGlobalCounts(overlaid.OwnWordTopicCounts()); err != nil {
				t.Fatalf("%s: SetGlobalCounts: %v", v.name, err)
			}
			overlaid.Run(4)
		}
		assignmentsEqual(t, v.name, overlaid.Assignments(), plain.Assignments())
		plain.Close()
		overlaid.Close()
	}
}

// TestExternalOverlaySurvivesSweeps checks the bookkeeping invariants of a
// genuinely nonzero overlay: the live slabs hold own + external at every
// boundary, OwnWordTopicCounts subtracts the overlay exactly (it always
// matches a from-scratch rebuild over the assignments), per-word deltas
// between boundaries sum to zero (tokens move between topics, never appear
// or vanish), and the sharded barrier does not drop the overlay.
func TestExternalOverlaySurvivesSweeps(t *testing.T) {
	data := sweepFixture(t)
	for _, mode := range []struct {
		name string
		set  func(*Options)
	}{
		{"sequential", func(o *Options) {}},
		{"sharded-multi", func(o *Options) { o.SweepMode = SweepShardedDocs; o.Shards = 3; o.Threads = 3 }},
	} {
		opts := Options{
			NumFreeTopics: 3, Alpha: 0.2, Beta: 0.01,
			LambdaMode: LambdaIntegrated, Mu: 0.7, Sigma: 0.3,
			QuadraturePoints: 5, UseSmoothing: true,
			Iterations: 8, Seed: 7,
		}
		mode.set(&opts)
		m, err := NewModel(data.Corpus, data.Source, opts)
		if err != nil {
			t.Fatal(err)
		}

		// A synthetic second worker: every (word, topic) pair contributes
		// (w+t) mod 3 external tokens.
		own := m.OwnWordTopicCounts()
		global := make([]int32, len(own))
		extTotal := make([]int32, m.T)
		for i, o := range own {
			e := int32((i/m.T + i%m.T) % 3)
			global[i] = o + e
			extTotal[i%m.T] += e
		}
		if err := m.SetGlobalCounts(global); err != nil {
			t.Fatalf("%s: SetGlobalCounts: %v", mode.name, err)
		}

		before := m.OwnWordTopicCounts()
		m.Run(8)
		after := m.OwnWordTopicCounts()

		// Own counts must match a from-scratch rebuild over the assignments.
		fresh := newCountStore(m.V, m.T)
		for d, doc := range m.c.Docs {
			for i, w := range doc.Words {
				fresh.wordTopic[w*m.T+m.z[d][i]]++
				fresh.topicTotal[m.z[d][i]]++
			}
		}
		for i := range after {
			if after[i] != fresh.wordTopic[i] {
				t.Fatalf("%s: own count %d is %d; rebuild from assignments gives %d",
					mode.name, i, after[i], fresh.wordTopic[i])
			}
			// Live slab = own + external at the boundary.
			if want := after[i] + m.ext.wordTopic[i]; m.counts.wordTopic[i] != want {
				t.Fatalf("%s: live count %d is %d, want own+ext = %d", mode.name, i, m.counts.wordTopic[i], want)
			}
		}
		for t2 := 0; t2 < m.T; t2++ {
			if want := fresh.topicTotal[t2] + extTotal[t2]; m.counts.topicTotal[t2] != want {
				t.Fatalf("%s: live topic total %d is %d, want own+ext = %d",
					mode.name, t2, m.counts.topicTotal[t2], want)
			}
		}
		// Per-word token conservation of the delta.
		for w := 0; w < m.V; w++ {
			var sum int32
			for t2 := 0; t2 < m.T; t2++ {
				sum += after[w*m.T+t2] - before[w*m.T+t2]
			}
			if sum != 0 {
				t.Fatalf("%s: word %d delta sums to %d tokens, want 0", mode.name, w, sum)
			}
		}
		m.Close()
	}
}

func TestSetGlobalCountsValidation(t *testing.T) {
	data := sweepFixture(t)
	opts := Options{
		NumFreeTopics: 3, Alpha: 0.2, Beta: 0.01,
		LambdaMode: LambdaIntegrated, Mu: 0.7, Sigma: 0.3,
		QuadraturePoints: 5, Iterations: 4, Seed: 1,
	}
	m, err := NewModel(data.Corpus, data.Source, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.SetGlobalCounts(make([]int32, 3)); err == nil || !strings.Contains(err.Error(), "entries") {
		t.Fatalf("wrong-length global slab not rejected: %v", err)
	}
	below := m.OwnWordTopicCounts()
	// Find a nonzero own count and undershoot it.
	for i := range below {
		if below[i] > 0 {
			below[i]--
			break
		}
	}
	if err := m.SetGlobalCounts(below); err == nil || !strings.Contains(err.Error(), "below") {
		t.Fatalf("global slab below own counts not rejected: %v", err)
	}
}
