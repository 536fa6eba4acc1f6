// Package smoothing estimates the paper's λ-linearization function g
// (§III-C2, Figs. 3 and 4). Raising source hyperparameters to a power λ
// moves the Jensen–Shannon divergence between a Dirichlet draw and the
// source distribution nonlinearly (Fig. 3), which mismatches the Gaussian
// prior placed over λ. g remaps λ so the expected JS divergence changes
// linearly in λ (Fig. 4). Following the paper, g is approximated by linear
// interpolation over aggregated samples taken on a grid in [0, 1].
package smoothing

import (
	"math"

	"sourcelda/internal/knowledge"
	"sourcelda/internal/mathx"
	"sourcelda/internal/rng"
	"sourcelda/internal/stats"
)

// Config controls the Monte-Carlo estimation of the JS-divergence curve.
type Config struct {
	// GridPoints is the number of λ grid points spanning [0, 1]. Minimum 2;
	// default 11 (steps of 0.1, matching Fig. 3's axis).
	GridPoints int
	// Samples is the number of Dirichlet draws aggregated per grid point.
	// Default 30.
	Samples int
	// Seed seeds the estimator's private generator.
	Seed int64
	// MeanField, when true, replaces Monte-Carlo sampling with the
	// deterministic mean-field approximation: the expected Dirichlet draw is
	// the normalized parameter vector, so JS(normalize(δ^λ), source) is used
	// directly. This is orders of magnitude faster and preserves the curve's
	// shape; the ablation tests compare both.
	MeanField bool
}

func (c Config) withDefaults() Config {
	if c.GridPoints < 2 {
		c.GridPoints = 11
	}
	if c.Samples <= 0 {
		c.Samples = 30
	}
	return c
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config { return Config{GridPoints: 11, Samples: 30} }

// G is the estimated linearization function for one knowledge-source topic.
// Eval maps a λ in [0, 1] to the exponent that produces a linearly-changing
// JS divergence.
type G struct {
	grid []float64 // λ grid points, ascending
	gval []float64 // g(grid[i])
	js   []float64 // estimated JS divergence at exponent grid[i] (monotone non-increasing)
}

// Identity returns the identity mapping g(λ) = λ, used when smoothing is
// disabled.
func Identity() *G {
	return &G{
		grid: []float64{0, 1},
		gval: []float64{0, 1},
		js:   []float64{math.Log(2), 0},
	}
}

// Estimate builds g for the topic whose hyperparameters are h and whose
// source distribution is src (dense, length h.V).
//
// The construction follows §III-C2: (1) estimate the mean JS divergence
// J(x) between Dir(δ^x) draws and the source distribution on a grid of
// exponents x; (2) force monotonicity (J decreases as x grows); (3) define
// the linear target L(λ) = J(0) + λ·(J(1) − J(0)) and set
// g(λ) = J⁻¹(L(λ)) by inverse linear interpolation.
func Estimate(h *knowledge.Hyperparams, src []float64, cfg Config) *G {
	cfg = cfg.withDefaults()
	n := cfg.GridPoints
	grid := make([]float64, n)
	js := make([]float64, n)
	var r *rng.RNG
	if !cfg.MeanField {
		r = rng.New(cfg.Seed) // seeding costs more than a mean-field grid point
	}
	// Two V-length buffers serve every grid point: alpha holds δ^x, draw its
	// normalization (mean-field) or the Dirichlet samples (Monte-Carlo).
	alpha := make([]float64, h.V)
	draw := make([]float64, h.V)
	for i := 0; i < n; i++ {
		grid[i] = float64(i) / float64(n-1)
		h.Pow(grid[i]).FillDense(alpha)
		if cfg.MeanField {
			copy(draw, alpha)
			mathx.Normalize(draw)
			js[i] = stats.JSDivergence(draw, src)
			continue
		}
		var total float64
		for s := 0; s < cfg.Samples; s++ {
			r.Dirichlet(alpha, draw)
			total += stats.JSDivergence(draw, src)
		}
		js[i] = total / float64(cfg.Samples)
	}
	// Enforce a non-increasing curve: Monte-Carlo noise can produce small
	// local bumps that would break the inversion.
	for i := 1; i < n; i++ {
		if js[i] > js[i-1] {
			js[i] = js[i-1]
		}
	}
	g := &G{grid: grid, js: js, gval: make([]float64, n)}
	j0, j1 := js[0], js[n-1]
	if j0 == j1 {
		// Degenerate flat curve (e.g. near-uniform source): identity map.
		copy(g.gval, grid)
		return g
	}
	for i := 0; i < n; i++ {
		target := j0 + grid[i]*(j1-j0)
		g.gval[i] = mathx.Clamp(mathx.InvertMonotone(grid, js, target), 0, 1)
	}
	// Pin the endpoints exactly: g(0)=0 and g(1)=1 by construction.
	g.gval[0] = 0
	g.gval[n-1] = 1
	// g must be non-decreasing for the downstream quadrature grid.
	for i := 1; i < n; i++ {
		if g.gval[i] < g.gval[i-1] {
			g.gval[i] = g.gval[i-1]
		}
	}
	return g
}

// Eval returns g(λ), clamping λ to [0, 1].
func (g *G) Eval(lambda float64) float64 {
	return mathx.InterpolateMonotone(g.grid, g.gval, mathx.Clamp(lambda, 0, 1))
}

// JSAt returns the estimated JS divergence at raw exponent x (the Fig. 3
// curve).
func (g *G) JSAt(x float64) float64 {
	return mathx.InterpolateMonotone(g.grid, g.js, mathx.Clamp(x, 0, 1))
}

// Grid returns copies of the λ grid and the g values at the grid points.
func (g *G) Grid() (lambdas, gvals []float64) {
	l := make([]float64, len(g.grid))
	v := make([]float64, len(g.gval))
	copy(l, g.grid)
	copy(v, g.gval)
	return l, v
}

// JSCurve returns copies of the λ grid and the estimated JS divergences.
func (g *G) JSCurve() (lambdas, js []float64) {
	l := make([]float64, len(g.grid))
	v := make([]float64, len(g.js))
	copy(l, g.grid)
	copy(v, g.js)
	return l, v
}

// Linearity measures how linear a curve ys over xs is: it returns the
// maximum absolute deviation between ys and the straight line through its
// endpoints, normalized by the endpoint gap. Smaller is more linear; the
// smoothing tests assert g reduces this metric versus the raw curve.
func Linearity(xs, ys []float64) float64 {
	n := len(xs)
	if n < 3 {
		return 0
	}
	y0, y1 := ys[0], ys[n-1]
	gap := math.Abs(y1 - y0)
	if gap == 0 {
		return 0
	}
	var worst float64
	for i := range xs {
		t := (xs[i] - xs[0]) / (xs[n-1] - xs[0])
		lin := y0 + t*(y1-y0)
		if d := math.Abs(ys[i] - lin); d > worst {
			worst = d
		}
	}
	return worst / gap
}

// SampleJSBoxData reproduces the data behind Figs. 3 and 4: for each λ in
// lambdas it draws samples from Dir(δ^exponent(λ)) and returns the JS
// divergences to the source distribution, where exponent is the identity for
// the raw figure and g.Eval for the smoothed one.
func SampleJSBoxData(h *knowledge.Hyperparams, src []float64, lambdas []float64, samples int, exponent func(float64) float64, seed int64) [][]float64 {
	r := rng.New(seed)
	out := make([][]float64, len(lambdas))
	draw := make([]float64, h.V)
	for i, l := range lambdas {
		alpha := h.Pow(exponent(l)).Dense()
		vals := make([]float64, samples)
		for s := 0; s < samples; s++ {
			r.Dirichlet(alpha, draw)
			vals[s] = stats.JSDivergence(draw, src)
		}
		out[i] = vals
	}
	return out
}
