package dtraintest

import (
	"fmt"
	"testing"

	"sourcelda/internal/core"
	"sourcelda/internal/dtrain"
)

// TestSingleWorkerMatchesSerialChain is the AD-LDA degeneracy contract:
// a 1-worker cluster (zero external overlay) must reproduce the serial
// in-process chain BIT-FOR-BIT, for every sweep mode × sampler kernel.
// The distributed machinery — wire codec, checkpointing, overlay install,
// final assembly — must be invisible to the math.
func TestSingleWorkerMatchesSerialChain(t *testing.T) {
	corp, src := Fixture(t)
	const epochs, staleness = 2, 2
	sweeps := epochs * staleness

	for _, mode := range []struct {
		name   string
		shards int
	}{
		{"sequential", 0},
		{"sharded-docs", 3},
	} {
		for _, kernel := range []string{"serial", "sparse"} {
			t.Run(fmt.Sprintf("%s/%s", mode.name, kernel), func(t *testing.T) {
				spec := DefaultSpec(101)
				spec.Sampler = kernel
				spec.SweepMode = mode.name
				if mode.shards > 0 {
					spec.Shards = mode.shards
					spec.Threads = 2
				}

				cl := New(t, Options{Workers: 1, Epochs: epochs, Staleness: staleness, Spec: &spec})
				cl.StartWorker()
				res, err := cl.Wait(waitTimeout)
				if err != nil {
					t.Fatalf("1-worker cluster failed: %v\nlogs:\n%s", err, cl.Logs())
				}

				opts, err := spec.Options(spec.Seed)
				if err != nil {
					t.Fatal(err)
				}
				m, err := core.NewModel(corp, src, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer m.Close()
				m.Run(sweeps)
				serial := m.Checkpoint()

				if len(serial.Z) != len(res.Checkpoint.Z) {
					t.Fatalf("Z length mismatch: serial %d, cluster %d", len(serial.Z), len(res.Checkpoint.Z))
				}
				for i := range serial.Z {
					if serial.Z[i] != res.Checkpoint.Z[i] {
						t.Fatalf("Z diverges at token %d: serial %d, cluster %d", i, serial.Z[i], res.Checkpoint.Z[i])
					}
				}
				if want := dtrain.ModelDigest(serial); res.Digest != want {
					t.Fatalf("digest mismatch: serial %#x, cluster %#x (λ or disabled flags diverged)", want, res.Digest)
				}
			})
		}
	}
}

// TestMultiWorkerBitReproducible pins that an N-worker run is a pure
// function of (seed, partition, staleness): running the same cluster
// twice yields identical digests, for both the dense and sparse kernels.
func TestMultiWorkerBitReproducible(t *testing.T) {
	for _, kernel := range []string{"serial", "sparse"} {
		t.Run(kernel, func(t *testing.T) {
			spec := DefaultSpec(202)
			spec.Sampler = kernel
			opts := Options{Workers: 3, Epochs: 2, Staleness: 2, Spec: &spec}
			a := runClean(t, opts)
			b := runClean(t, opts)
			if a.Digest != b.Digest {
				t.Fatalf("same-config runs diverged: %#x vs %#x", a.Digest, b.Digest)
			}
		})
	}
}

// TestStalenessChangesTrajectory is a sanity check that the staleness knob
// is real: with multiple workers, syncing every sweep vs every other sweep
// must produce different chains (if it didn't, the overlay would not be
// wired into sampling at all).
func TestStalenessChangesTrajectory(t *testing.T) {
	spec := DefaultSpec(303)
	a := runClean(t, Options{Workers: 2, Epochs: 4, Staleness: 1, Spec: &spec})
	b := runClean(t, Options{Workers: 2, Epochs: 2, Staleness: 2, Spec: &spec})
	if a.Digest == b.Digest {
		t.Fatalf("staleness 1 and 2 produced identical digests %#x — overlay not affecting sampling", a.Digest)
	}
}
