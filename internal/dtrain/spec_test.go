package dtrain

import (
	"encoding/json"
	"errors"
	"testing"

	"sourcelda/internal/core"
)

// TestSpecSamplerNames: the wire spec names its kernel. The two this build
// runs parse; a spec shipped by a coordinator that still had the retired
// within-token kernels is refused by name, anything else as unknown.
func TestSpecSamplerNames(t *testing.T) {
	for _, c := range []struct {
		name    string
		want    core.SamplerKind
		ok      bool
		retired bool
	}{
		{"", core.SamplerSerial, true, false},
		{"serial", core.SamplerSerial, true, false},
		{"sparse", core.SamplerSparse, true, false},
		{"simple-parallel", 0, false, true},
		{"prefix-sums", 0, false, true},
		{"auto", 0, false, false},
	} {
		got, err := ParseSampler(c.name)
		if (err == nil) != c.ok || got != c.want || errors.Is(err, core.ErrRetiredSampler) != c.retired {
			t.Errorf("ParseSampler(%q) = %v, %v", c.name, got, err)
		}
		// The same name arriving in an assign message's JSON spec.
		var spec ChainSpec
		blob, _ := json.Marshal(map[string]any{"num_free_topics": 2, "sampler": c.name, "seed": 7})
		if err := json.Unmarshal(blob, &spec); err != nil {
			t.Fatal(err)
		}
		opts, err := spec.Options(spec.Seed)
		if (err == nil) != c.ok || errors.Is(err, core.ErrRetiredSampler) != c.retired {
			t.Errorf("spec with sampler %q: Options error %v", c.name, err)
		}
		if c.ok && opts.Sampler != c.want {
			t.Errorf("spec with sampler %q: kernel %v, want %v", c.name, opts.Sampler, c.want)
		}
	}
}
