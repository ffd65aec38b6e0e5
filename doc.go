// Package repro is godfm: an open-source reproduction of the question
// posed by "DFM in practice: hit or hype?" (DAC 2008) — a complete
// Design-for-Manufacturability stack in pure Go, plus the scorecard
// experiments that answer the panel quantitatively.
//
// The implementation lives under internal/ (see DESIGN.md for the
// system inventory); the runnable surfaces are:
//
//   - cmd/dfmscore   — the full hit-or-hype scorecard
//   - cmd/drccheck   — design-rule checking
//   - cmd/lithosim   — aerial-image simulation and hotspot scanning
//   - cmd/yieldest   — critical-area yield estimation
//   - cmd/patscan    — layout pattern catalogs
//   - examples/      — quickstart and four domain flows
//   - experiments_test.go — the experiments (T1..T7, F1..F6, ablations) as
//     one table, held to testdata/experiments.golden; bench_test.go times
package repro
