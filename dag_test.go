package vmdeflate

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// The package DAG of the VM-scale core: the packages a 10M-VM cluster
// run compiles, which must not reach the single-VM and request-level
// models of the testbed experiments.
var (
	vmScaleCore = []string{"resources", "hypervisor", "cluster/capindex", "cluster", "notify"}
	// requestLevel are the packages no core package may reach: the
	// testbed applications, the guest OS, the load balancer, the hotplug
	// mechanisms, the request generators, the PS station and the event
	// engine it runs on.
	requestLevel = []string{"apps", "guestos", "loadbalancer", "mechanism", "workload", "queueing", "sim"}
	// pendingRequestLevel are request-level models the core still
	// reaches, through policy.VMState in the hypervisor's deflatable
	// view: policy imports perfmodel for its deflation curves and the
	// closed-form PS slowdown. It joins requestLevel once VMState moves
	// below hypervisor.
	pendingRequestLevel = []string{"perfmodel"}
)

// TestCoreReachesNoRequestLevelModel pins the DAG with `go list -deps`
// on each core package: a core package that reaches a requestLevel
// package fails with the package it reached. A pendingRequestLevel
// package no core package reaches any more fails too, so the list
// shrinks to requestLevel as the last edge goes.
func TestCoreReachesNoRequestLevelModel(t *testing.T) {
	stillPending := map[string]bool{}
	for _, core := range vmScaleCore {
		out, err := exec.Command("go", "list", "-deps", modulePath+"/internal/"+core).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", core, err)
		}
		for _, dep := range strings.Fields(string(out)) {
			name, ok := strings.CutPrefix(dep, modulePath+"/internal/")
			switch {
			case !ok:
			case slices.Contains(requestLevel, name):
				t.Errorf("%s reaches %s", core, name)
			case slices.Contains(pendingRequestLevel, name):
				stillPending[name] = true
			}
		}
	}
	for _, name := range pendingRequestLevel {
		if !stillPending[name] {
			t.Errorf("no core package reaches %s any more: move it to requestLevel", name)
		}
	}
	t.Logf("reached through policy.VMState, pending its move: %v", pendingRequestLevel)
}
