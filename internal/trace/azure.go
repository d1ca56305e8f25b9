package trace

import (
	"math"
)

// ClassParams control the synthetic utilisation process for one workload
// class. The process is: a per-VM lognormal base level, a diurnal
// modulation, AR(1) noise, and an on/off burst (spike) process with
// geometrically distributed sojourns. These four ingredients reproduce
// the distributional features of the Azure dataset that Section 3's
// analysis depends on: low medians, heavy upper tails, class separation
// between interactive and batch workloads, and meaningful p95 structure.
type ClassParams struct {
	// BaseLogMean and BaseLogStd parameterise the lognormal distribution
	// of a VM's baseline utilisation percentage.
	BaseLogMean, BaseLogStd float64
	// Diurnal amplitude (fraction of base) is drawn uniformly per VM.
	DiurnalAmpMin, DiurnalAmpMax float64
	// AR(1) noise: u += rho*prev + N(0, std).
	NoiseStd, NoiseCorr float64
	// BurstProb is the per-sample probability of entering a burst;
	// BurstMeanLen is the geometric mean sojourn (in samples);
	// burst level is drawn uniformly in [BurstLevelMin, BurstLevelMax].
	BurstProb, BurstMeanLen      float64
	BurstLevelMin, BurstLevelMax float64
}

// azureClassMix and azureParams are the generators' calibration
// against the published statistics of the Azure 2017 dataset as used by
// the paper: interactive VMs have low median utilisation with diurnal
// peaks (impact 1-15% for 10-50% deflation, Figure 6), delay-insensitive
// VMs run hot in bursts (impact 1-30%), and roughly half of all VMs are
// interactive (Section 7.1.2 derives ~50% deflatable VMs from the class
// labels). azureClassMix gives the probability of each class, indexed by
// VMClass; azureParams the utilisation process per class.
var (
	azureClassMix = [3]float64{0.50, 0.27, 0.23} // interactive, delay-insensitive, unknown
	azureParams   = [3]ClassParams{
		Interactive: {
			BaseLogMean: math.Log(13), BaseLogStd: 0.72,
			DiurnalAmpMin: 0.3, DiurnalAmpMax: 0.8,
			NoiseStd: 4, NoiseCorr: 0.7,
			BurstProb: 0.008, BurstMeanLen: 3,
			BurstLevelMin: 55, BurstLevelMax: 100,
		},
		DelayInsensitive: {
			BaseLogMean: math.Log(28), BaseLogStd: 0.55,
			DiurnalAmpMin: 0.0, DiurnalAmpMax: 0.2,
			NoiseStd: 6, NoiseCorr: 0.6,
			BurstProb: 0.045, BurstMeanLen: 8,
			BurstLevelMin: 55, BurstLevelMax: 95,
		},
		Unknown: {
			BaseLogMean: math.Log(20), BaseLogStd: 0.7,
			DiurnalAmpMin: 0.1, DiurnalAmpMax: 0.5,
			NoiseStd: 5, NoiseCorr: 0.65,
			BurstProb: 0.025, BurstMeanLen: 5,
			BurstLevelMin: 55, BurstLevelMax: 98,
		},
	}
)

// coreOptions and their sampling weights approximate the Azure VM size
// mix (skewed strongly toward small VMs).
var coreOptions = []struct {
	cores  int
	weight float64
}{
	{1, 0.30}, {2, 0.28}, {4, 0.20}, {8, 0.12}, {16, 0.06}, {24, 0.03}, {32, 0.01},
}

// memPerCoreGB options (Azure families: compute-optimised ~1.75-2 GB/core,
// general purpose ~4, memory-optimised ~8).
var memPerCoreOptions = []struct {
	gb     float64
	weight float64
}{
	{0.75, 0.15}, {1.75, 0.25}, {2, 0.20}, {4, 0.28}, {8, 0.12},
}

func pickWeightedCores(rng *vmSource) int {
	r := rng.Float64()
	var c float64
	for _, o := range coreOptions {
		c += o.weight
		if r < c {
			return o.cores
		}
	}
	return coreOptions[len(coreOptions)-1].cores
}

func pickWeightedMemPerCore(rng *vmSource) float64 {
	r := rng.Float64()
	var c float64
	for _, o := range memPerCoreOptions {
		c += o.weight
		if r < c {
			return o.gb
		}
	}
	return memPerCoreOptions[len(memPerCoreOptions)-1].gb
}

func pickClass(rng *vmSource) VMClass {
	mix := &azureClassMix
	r := rng.Float64() * (mix[0] + mix[1] + mix[2])
	if r < mix[0] {
		return Interactive
	}
	if r < mix[0]+mix[1] {
		return DelayInsensitive
	}
	return Unknown
}

// pickLifetime draws a VM lifetime (seconds): a mixture of short-lived,
// day-scale, and trace-long VMs, echoing the Azure lifetime distribution.
func pickLifetime(rng *vmSource, horizon float64) float64 {
	r := rng.Float64()
	var lt float64
	switch {
	case r < 0.45: // short: 15 min - 2 h
		lt = 900 + rng.Float64()*(7200-900)
	case r < 0.85: // medium: 2 h - 1 day
		lt = 7200 + rng.Float64()*(86400-7200)
	default: // long: 1 day - horizon
		lt = 86400 + rng.Float64()*(horizon-86400)
	}
	if lt > horizon {
		lt = horizon
	}
	if lt < SampleInterval {
		lt = SampleInterval
	}
	return lt
}
