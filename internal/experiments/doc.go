// Package experiments regenerates every table and figure of the paper's
// evaluation section (PAPER.md §IV) on synthetic substitutes for the
// paper's corpora. Each experiment returns a Report containing the same
// rows or series the paper presents, the paper's expected shape, and a
// pass/fail shape check (who wins, by roughly what factor) — absolute
// numbers are not expected to match the authors' testbed, the *ordering
// and ratios* are.
//
// One runner per artifact:
//
//   - Table 1 (table1.go): discovered labeled topics, Source-LDA vs CTM.
//   - Figs. 2–4 (figs234.go): pixel plots of assignment quality across
//     the bijective, known-mixture and full models (internal/pixel).
//   - Figs. 5–6 (figs56.go): labeling accuracy vs baselines and the
//     post-hoc labelers (internal/labeling).
//   - Fig. 7 (fig7.go): held-out perplexity across (µ, σ).
//   - Fig. 8 (fig8.go): assignment accuracy, PMI and θ divergence against
//     the baselines. Fig. 8(f) (fig8f.go): iteration time vs topic count on
//     one thread through internal/core, and the paper's within-token
//     parallel kernels (Algorithms 2–3, kernels.go — experiment-local, not
//     core samplers) timed per draw against the sequential scan and pinned
//     to it index for index.
//   - Case study (casestudy.go): the §I "school supplies" illustration.
//
// Experiments run at two scales: the default is sized for a laptop CPU
// (parameters recorded in each report), and Quick mode shrinks everything
// further for the test suite and CI. cmd/experiments is the CLI
// (-list/-run/-quick); the test suite runs every artifact in Quick mode so
// a regression in any reproduction fails tier-1.
package experiments
