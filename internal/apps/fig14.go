package apps

import (
	"math"

	"vmdeflate/internal/mechanism"
	"vmdeflate/internal/resources"
)

// SpecJBBMemoryRT is one point of Figure 14 for the given mechanism
// (Transparent or Hybrid): a 16 GB SpecJBB VM has only its *memory*
// deflated by pct percent; the value is its mean response time,
// normalised to the undeflated VM's.
//
// The response-time model is driven entirely by domain state produced by
// the real mechanism:
//
//   - hypervisor swap pressure (transparent limit below the JVM's RSS)
//     multiplies response time. Transparent deflation pays a higher
//     per-page cost because the hypervisor's LRU cannot see guest access
//     patterns (the classic two-level paging problem); under hybrid
//     deflation the guest has already surrendered its coldest pages via
//     hot-unplug, so the residual swap is cheaper.
//   - memory actually hot-unplugged *improves* performance slightly
//     (up to ~10%): the guest kernel manages fewer pages and the JVM
//     triggers compaction, per the paper's Figure 14 observation that
//     "hybrid deflation improves performance by about 10%".
func SpecJBBMemoryRT(mech mechanism.Mechanism, pct float64) (float64, error) {
	if err := checkPct(pct); err != nil {
		return 0, err
	}
	d, g, err := testbedVM("specjbb-vm", resources.New(8, 16384, 200, 2000))
	if err != nil {
		return 0, err
	}
	SpecJBB{}.InstallWorkload(d, g)

	maxMem := d.MaxSize().Get(resources.Memory)
	target := d.MaxSize().With(resources.Memory, (1-pct/100)*maxMem)
	alloc, err := mech.Apply(d, g, target)
	if err != nil {
		return 0, err
	}

	// Swap cost: transparent pays the blind two-level-LRU price; hybrid's
	// residual swap hits pre-cooled pages.
	swapCost := 8.0
	if mech.Name() == (mechanism.Hybrid{}).Name() {
		swapCost = 4.0
	}
	pressure := g.SwapPressure(alloc.Get(resources.Memory))

	// Hot-unplug benefit, proportional to how much of the unpluggable
	// range was actually surrendered by the guest.
	unplugged := maxMem - g.PluggedMemoryMB()
	maxUnpluggable := maxMem - g.RSSMB()
	benefit := 0.0
	if maxUnpluggable > 0 && unplugged > 0 {
		benefit = 0.10 * math.Min(1, unplugged/maxUnpluggable)
	}

	return (1 - benefit) * (1 + swapCost*pressure), nil
}
