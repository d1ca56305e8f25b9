package main

import (
	"fmt"
	"math"
	"time"

	"vmdeflate/internal/cluster/capindex"
	"vmdeflate/internal/clustersim"
	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/resources"
	"vmdeflate/internal/trace"
)

// The leaf kernels time single operations of the layers under the
// cluster manager on fixed inputs shaped like the workload: K residents
// per server, S servers. They say which leaf moved when a cluster.*
// figure does.

const kernelIters = 2000

// timePerOp runs op iters times and returns nanoseconds and heap
// objects allocated per operation.
func timePerOp(iters int, op func(i int)) (ns, allocs float64) {
	rt := newRTReader()
	before := rt.read().allocs
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		op(i)
	}
	d := time.Since(t0)
	return float64(d.Nanoseconds()) / float64(iters), float64(rt.read().allocs-before) / float64(iters)
}

// kernels fills vals with the hypervisor, capindex, policy and trace
// leaf metrics for a workload with k residents per server on s servers.
func kernels(w *workload, seed int64, k, s int, vals map[string]float64) error {
	if k < 1 {
		k = 1
	}
	size := resources.CPUMem(2, 4096)
	host, err := hypervisor.NewHost(hypervisor.HostConfig{
		Name:     "kernel-host",
		Capacity: clustersim.DefaultServerCapacity().Scale(float64(k + 1)),
	})
	if err != nil {
		return err
	}
	residents := make([]*hypervisor.Domain, k)
	states := make([]policy.VMState, k)
	for i := range residents {
		dc := hypervisor.DomainConfig{
			Name: fmt.Sprintf("res-%04d", i), Size: size,
			Deflatable: true, Priority: float64(i%4+1) / 4, Load: 0.5,
		}
		d, err := host.Define(dc)
		if err == nil {
			err = d.Start()
		}
		if err != nil {
			return err
		}
		residents[i] = d
		states[i] = policy.VMState{Name: dc.Name, Max: size, Min: dc.Floor(), Priority: dc.Priority, Current: size, Load: dc.Load}
	}

	// One launch and teardown as the manager performs them.
	probe := hypervisor.DomainConfig{Name: "probe", Size: size, Deflatable: true, Priority: 0.5}
	var opErr error
	ns, allocs := timePerOp(kernelIters, func(int) {
		d, err := host.Define(probe)
		if err == nil {
			err = d.Start()
		}
		if err == nil {
			err = d.Shutdown()
		}
		if err == nil {
			err = host.Undefine(probe.Name)
		}
		if err != nil {
			opErr = err
		}
	})
	if opErr != nil {
		return opErr
	}
	vals["hypervisor.define_undefine_ns"], vals["hypervisor.define_allocs"] = ns, allocs

	// One dirty episode: a limit change invalidates, the next read
	// re-derives the host's aggregates over all K residents.
	ns, _ = timePerOp(kernelIters, func(i int) {
		if err := residents[i%k].SetCPUShares(1 + float64(i%2)/2); err != nil {
			opErr = err
		}
		kernelSink += host.Aggregates().Running
	})
	if opErr != nil {
		return opErr
	}
	vals["hypervisor.refresh_ns"] = ns

	// Re-key one of S servers in the capacity index.
	ix := capindex.New()
	names := make([]string, s)
	for i := range names {
		names[i] = fmt.Sprintf("node-%03d", i)
		ix.Upsert(names[i], float64(i)/float64(s))
	}
	ns, allocs = timePerOp(kernelIters, func(i int) {
		// Golden-ratio steps: a server never lands on its previous key,
		// which Upsert would skip.
		ix.Upsert(names[i%s], math.Mod(float64(i+1)*0.6180339887498949, 1))
	})
	vals["capindex.upsert_ns"], vals["capindex.upsert_allocs"] = ns, allocs

	// One policy pass freeing a tenth of the residents' allocation.
	pol := w.policy
	if pol == nil {
		pol = policy.Proportional{}
	}
	need := size.Scale(float64(k) / 10)
	var scratch policy.Scratch
	ns, _ = timePerOp(kernelIters, func(int) {
		res, err := pol.TargetsInto(states, need, &scratch)
		if err != nil {
			opErr = err
		}
		kernelSink += len(res.Targets)
	})
	if opErr != nil {
		return opErr
	}
	vals["policy.targets_ns"] = ns

	// The streamed trace's two per-VM generators.
	st, err := trace.NewNamedStream(w.scenario, w.vms, horizon, seed)
	if err != nil {
		return err
	}
	ns, _ = timePerOp(w.vms, func(i int) { kernelSink += st.Params(i).Cores })
	vals["trace.vm_params_ns"] = ns
	cur := trace.NewUtilCursor()
	lifetimes := min(1000, w.vms)
	samples := 0
	t0 := time.Now()
	for i := 0; i < lifetimes; i++ {
		p := st.Params(i)
		cur.Reset(p)
		for t := p.Start; t < p.End; t += trace.SampleInterval {
			kernelSink += int(cur.At(t))
			samples++
		}
	}
	vals["trace.util_sample_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(samples)
	return nil
}

var kernelSink int
