package cluster

import "testing"

// UseOracle makes every Manager built until t ends answer its placement
// queries through the named test-side oracle, "reference" or "fullscan"
// (oracle_test.go), so external tests can hold whole clustersim runs to
// it. Tests that call it must not run in parallel with others.
func UseOracle(t testing.TB, name string) {
	t.Helper()
	o, ok := oracles[name]
	if !ok {
		t.Fatalf("unknown placement oracle %q", name)
	}
	prev := defaultOracle
	defaultOracle = o
	t.Cleanup(func() { defaultOracle = prev })
}
