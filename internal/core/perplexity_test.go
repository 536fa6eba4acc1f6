package core

import (
	"strings"
	"testing"
)

// TestHeldOutPerplexityRejectsBadSchedule is the regression test for the
// silent burn-in remap: burnIn >= iterations used to be rewritten to
// iterations/2 instead of rejected, so a caller asking for an impossible
// schedule got a different one without noticing.
func TestHeldOutPerplexityRejectsBadSchedule(t *testing.T) {
	data := sweepFixture(t)
	m, err := Fit(data.Corpus, data.Source, Options{
		NumFreeTopics: 2, Alpha: 0.2, Beta: 0.01,
		LambdaMode: LambdaFixed, Lambda: 0.8,
		Iterations: 5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	cases := []struct {
		name               string
		iterations, burnIn int
	}{
		{"burn-in-equals-iterations", 20, 20},
		{"burn-in-exceeds-iterations", 20, 21},
		{"negative-burn-in", 20, -1},
		// iterations <= 0 defaults to 50 sweeps; a burn-in of 50 still
		// leaves no sampling sweeps and must be rejected against the
		// defaulted count, not the literal zero.
		{"burn-in-swallows-defaulted-iterations", 0, 50},
	}
	for _, c := range cases {
		if _, err := m.HeldOutPerplexity(data.Corpus, c.iterations, c.burnIn, 1); err == nil {
			t.Fatalf("%s: HeldOutPerplexity(iterations=%d, burnIn=%d) succeeded; want an error",
				c.name, c.iterations, c.burnIn)
		} else if !strings.Contains(err.Error(), "burn-in") {
			t.Fatalf("%s: error %q does not name the burn-in", c.name, err)
		}
	}

	// The boundary schedule (one sampling sweep) must still work, as must a
	// zero burn-in.
	if _, err := m.HeldOutPerplexity(data.Corpus, 3, 2, 1); err != nil {
		t.Fatalf("burnIn=iterations-1 rejected: %v", err)
	}
	if _, err := m.HeldOutPerplexity(data.Corpus, 3, 0, 1); err != nil {
		t.Fatalf("zero burn-in rejected: %v", err)
	}
}

// TestHeldOutThetaSkipsPrunedTopics is the regression test for held-out
// estimation ignoring §III-C3 pruning: test tokens used to be initialised
// with r.Intn(T) and resampled with a non-zero conditional for disabled
// topics, so an eliminated topic kept a share of every held-out θ̃.
func TestHeldOutThetaSkipsPrunedTopics(t *testing.T) {
	data := sweepFixture(t)
	m, err := Fit(data.Corpus, data.Source, Options{
		NumFreeTopics: 3, Alpha: 0.2, Beta: 0.01,
		LambdaMode: LambdaIntegrated, Mu: 0.7, Sigma: 0.3, QuadraturePoints: 5,
		PruneDeadTopics: true, PruneAfter: 4, PruneEvery: 3, PruneMinDocs: 8,
		Iterations: 8, Seed: 4242,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	pruned := 0
	for _, off := range m.disabled {
		if off {
			pruned++
		}
	}
	if pruned == 0 {
		t.Fatal("fixture pruned nothing")
	}
	theta := m.heldOutTheta(data.Corpus, 10, 4, 7)
	for d, row := range theta {
		var total float64
		for k, p := range row {
			if m.disabled[k] && p != 0 {
				t.Fatalf("doc %d: pruned topic %d holds θ̃ mass %v", d, k, p)
			}
			total += p
		}
		if total < 1-1e-9 || total > 1+1e-9 {
			t.Fatalf("doc %d: θ̃ sums to %v over the surviving topics", d, total)
		}
	}
	if _, err := m.HeldOutPerplexity(data.Corpus, 10, 4, 7); err != nil {
		t.Fatal(err)
	}
}
