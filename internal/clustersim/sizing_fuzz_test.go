package clustersim

import (
	"fmt"
	"slices"
	"testing"

	"vmdeflate/internal/trace"
)

// fuzzTrace decodes fuzz bytes into at most 48 VMs, four bytes each:
// a start on a coarse 16-slot grid, so times tie; a lifetime of 0 to 7
// slots, so one VM in eight lives zero seconds; cores, with byte 255
// asking for a VM larger than a server; and a memory size in thirds of
// a GB, so free vectors drift by round-off as VMs come and go. IDs come
// from a pool of five, so they repeat, also among VMs live at once.
func fuzzTrace(data []byte) *trace.AzureTrace {
	tr := &trace.AzureTrace{}
	for i := 0; i+4 <= len(data) && len(tr.VMs) < 48; i += 4 {
		b := data[i : i+4]
		start := float64(b[0]%16) * 300
		cores := 1 + int(b[2]%24)
		if b[2] == 255 {
			cores = 64
		}
		tr.VMs = append(tr.VMs, &trace.VMRecord{
			ID:       fmt.Sprintf("vm-%d", b[3]%5),
			Cores:    cores,
			MemoryMB: 1 + float64(b[3])*1024/3,
			Start:    start,
			End:      start + float64(b[1]%8)*300,
		})
	}
	return tr
}

// FuzzSizeFleet holds the one-pass fleet sizer to the per-candidate
// search it replaced: the geometry walk must deliver the stable sort's
// event order, and sizeFleet must land on the candidate search's server
// count, or fail where it fails — on a VM larger than a server, or on
// no packing within the 4x guard.
//
//	go test -run '^$' -fuzz FuzzSizeFleet -fuzztime 15s -fuzzminimizetime 200x ./internal/clustersim
func FuzzSizeFleet(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 10, 3, 0, 1, 10, 3, 1, 0, 40, 200, 1, 2, 46, 254})
	f.Add([]byte{3, 4, 255, 9, 3, 4, 5, 9})
	for seed := int64(1); seed <= 4; seed++ {
		var data []byte
		for _, vm := range fractionalTrace(seed, 48).VMs {
			data = append(data, byte(vm.Start/300), byte((vm.End-vm.Start)/300), byte(vm.Cores-1), byte(vm.MemoryMB/256))
		}
		f.Add(data)
	}
	capacity := DefaultServerCapacity()
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := fuzzTrace(data)
		src := newRowSource(tr, nil)
		if got, want := walkOrder(src, tr.VMs), referenceEvents(tr); !slices.Equal(got, want) {
			t.Fatalf("walk order differs from the stable sort:\ngot  %v\nwant %v", got, want)
		}
		n, _, err := sizeFleet(src, capacity)
		want, _, refErr := referenceServerCount(tr, capacity)
		switch {
		case (err == nil) != (refErr == nil):
			t.Fatalf("sizeFleet: %d, %v; candidate search: %d, %v", n, err, want, refErr)
		case err == nil && n != want:
			t.Fatalf("sizeFleet sized %d servers, candidate search %d", n, want)
		}
	})
}
