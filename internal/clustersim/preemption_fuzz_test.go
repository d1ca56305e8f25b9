package clustersim

import (
	"fmt"
	"testing"

	"vmdeflate/internal/trace"
)

// fuzzPreemptionTrace decodes fuzz bytes into at most 48 VMs, four bytes
// each: a start on a 16-slot grid, so arrivals tie with one another and
// with the shocks; a lifetime of 0 to 7 slots, so one VM in eight lives
// zero seconds, and the on-demand class in the byte's top bit; cores,
// with byte 255 asking for a VM larger than a default server; and a
// memory size in thirds of a GB, so free vectors drift by round-off.
// IDs come from a pool of 32, so some repeat, also among VMs live at
// once. Each VM gets a utilisation series drawn from its bytes.
func fuzzPreemptionTrace(data []byte) *trace.AzureTrace {
	tr := &trace.AzureTrace{}
	for i := 0; i+4 <= len(data) && len(tr.VMs) < 48; i += 4 {
		b := data[i : i+4]
		start := float64(b[0]%16) * 300
		slots := int(b[1] % 8)
		cores := 1 + int(b[2]%24)
		if b[2] == 255 {
			cores = 64
		}
		vm := &trace.VMRecord{
			ID:       fmt.Sprintf("vm-%d", int(b[0]>>4)|int(b[3]&1)<<4),
			Class:    trace.Interactive,
			Cores:    cores,
			MemoryMB: 1 + float64(b[3])*1024/3,
			Start:    start,
			End:      start + float64(slots)*300,
		}
		if b[1] >= 128 {
			vm.Class = trace.DelayInsensitive
		}
		for k := range max(1, slots) {
			vm.CPUUtil = append(vm.CPUUtil, float64((int(b[3])*7+int(b[2])+k*37)%101))
		}
		tr.VMs = append(tr.VMs, vm)
	}
	return tr
}

// fuzzSchedule decodes fuzz bytes into at most 16 shocks, three bytes
// each: a time on the trace's 16-slot grid, so shocks tie with arrivals
// and with one another (two revokes of one server at one instant among
// them); a kind (revoke, restore, or revoke again) and one of eight
// servers; and a byte that is skipped. The kind's three values and the
// skipped byte keep committed inputs decoding as they were written.
func fuzzSchedule(data []byte) []trace.CapacityShock {
	var shocks []trace.CapacityShock
	kinds := [...]trace.ShockKind{trace.ShockRevoke, trace.ShockRestore, trace.ShockRevoke}
	for i := 0; i+3 <= len(data) && len(shocks) < 16; i += 3 {
		b := data[i : i+3]
		shocks = append(shocks, trace.CapacityShock{At: float64(b[0]%16) * 300, Kind: kinds[b[1]%3], Server: int(b[1]/3) % 8})
	}
	return shocks
}

// FuzzPreemptionMatchesParentLoop drives small traces and explicit shock
// schedules through the preemption baseline on the engine's one event
// loop and on the loop it had of its own (preemption_oracle_test.go):
// both must return the same Result, or fail with the same error (an ID
// live twice). The servers byte pins the fleet at one to eight servers.
//
//	go test -run '^$' -fuzz FuzzPreemptionMatchesParentLoop -fuzztime 15s -fuzzminimizetime 200x ./internal/clustersim
func FuzzPreemptionMatchesParentLoop(f *testing.F) {
	f.Add([]byte{0, 3, 10, 30, 0, 131, 20, 200, 1, 2, 5, 90, 2, 0, 7, 17}, []byte{1, 2, 200, 1, 0, 0, 3, 1, 0}, byte(2))
	f.Add([]byte{0, 1, 23, 3, 0, 129, 23, 3, 1, 4, 255, 60, 3, 5, 11, 254}, []byte{1, 0, 0, 1, 0, 0, 2, 1, 0}, byte(3))
	f.Fuzz(func(t *testing.T, vms, shocks []byte, servers byte) {
		cfg := Config{
			Trace:           fuzzPreemptionTrace(vms),
			Shocks:          fuzzSchedule(shocks),
			BaselineServers: 1 + int(servers%8),
		}
		matchParent(t, "fuzz", cfg)
	})
}
