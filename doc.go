// Package vmdeflate holds no code, only tests of this reproduction of
// "Cloud-scale VM Deflation for Running Interactive Applications On
// Transient Servers" (HPDC 2020): figures_test.go pins the conclusion of
// every data figure of the evaluation (Figs 3-22 but the diagrams 4, 13
// and 15) at seeds 1-3, reach_test.go holds FIGURES.md to the import
// graph, and bench_test.go keeps the sweep benchmarks.
//
// The figures are printed by the commands under cmd/ (deflationsim,
// feasibility, webbench, tracegen); FIGURES.md maps each figure to its
// command, the internal packages it reaches and the test that pins it.
package vmdeflate
