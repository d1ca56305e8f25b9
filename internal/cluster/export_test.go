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

// ResyncEveryServer makes every Manager re-derive every server's cached
// placement state before each query until t ends, marked or not
// (resyncAll), so external tests can hold whole clustersim runs, whose
// managers sync only the servers they wrote, to full invalidation.
// Tests that call it must not run in parallel with others.
func ResyncEveryServer(t testing.TB) {
	t.Helper()
	prev := resyncAll
	resyncAll = true
	t.Cleanup(func() { resyncAll = prev })
}
