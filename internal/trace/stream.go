package trace

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// This file implements the streaming trace generator: every VM of a
// synthetic trace is a pure function of (config, index). A Stream hands
// out compact per-VM parameter records (VMParams) on demand and
// synthesizes utilisation samples lazily from a per-VM RNG seed, so a
// 10M-VM simulation holds O(live VMs) of trace state instead of
// materialising ~10^9 float64 samples up front. The eager generator
// (GenerateScenario, and GenerateNamed over it) is a thin wrapper over
// Stream.Materialize, which is what makes streamed and eager runs
// bit-for-bit identical by construction — and lets the differential
// suite prove it end-to-end through full simulation results.

// mix64 is the splitmix64 finalizer: a bijective avalanche over uint64,
// used both to derive independent per-VM seeds and as the vmSource step
// function.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Seed-derivation channels: each VM draws its placement parameters and
// its utilisation series from independent streams, so the number of
// parameter draws (which varies with accept-reject arrival sampling)
// can never shift the utilisation bits.
const (
	chParams uint64 = iota
	chUtil
	chShape // trace-level shape state (e.g. bursty crowd windows)
)

// streamSeed derives the per-(trace seed, VM index, channel) RNG seed.
func streamSeed(seed int64, index int, channel uint64) uint64 {
	h := mix64(uint64(seed))
	h = mix64(h ^ mix64(channel))
	return mix64(h ^ mix64(uint64(index)))
}

// vmSource is a compact splitmix64 rand.Source64: 8 bytes of state
// instead of math/rand's ~4.9 KB default source, which matters when a
// cursor per live VM carries one. It satisfies rand.Source64, so
// rand.Rand's NormFloat64/ExpFloat64 run their standard algorithms over
// it.
type vmSource struct{ state uint64 }

func (s *vmSource) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *vmSource) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *vmSource) Seed(seed int64) { s.state = uint64(seed) }

// Float64 mirrors math/rand's Int63-based algorithm (including the
// rounding retry) so parameter draws need no rand.Rand allocation.
func (s *vmSource) Float64() float64 {
	for {
		f := float64(s.Int63()) / (1 << 63)
		if f < 1 {
			return f
		}
	}
}

// VMParams is the compact per-VM record a Stream generates: everything
// needed to materialise the VM — metadata plus the utilisation-series
// seed and class parameters — in a few hundred bytes, with the samples
// themselves left unsynthesized.
type VMParams struct {
	Index    int
	Class    VMClass
	Cores    int
	MemoryMB float64
	// Start and End are the clipped lifetime window, exactly as a
	// materialised VMRecord would carry.
	Start, End float64
	// UtilSeed seeds the utilisation synthesis stream (channel chUtil).
	UtilSeed uint64
	// P is the utilisation process configuration for this VM (already
	// including any per-VM adjustments, e.g. the heavy-tail burst boost).
	P ClassParams
}

// ID returns the VM's trace identifier, identical to the eager
// generators' naming. It allocates the string and nothing else: the
// streamed intake pays it once per arrival.
func (p VMParams) ID() string {
	var b [24]byte
	return string(appendID(b[:0], p.Index))
}

// appendID appends index's trace identifier, "vm-" and the index
// zero-padded to six digits, to b.
func appendID(b []byte, index int) []byte {
	b = append(b, "vm-"...)
	for d := 100000; d > 1 && index < d; d /= 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(index), 10)
}

// Samples returns the utilisation series length.
func (p VMParams) Samples() int {
	n := int(math.Ceil((p.End - p.Start) / SampleInterval))
	if n < 1 {
		n = 1
	}
	return n
}

// utilState is the four-component utilisation process (lognormal base,
// diurnal modulation, AR(1) noise, burst sojourns) factored into an
// explicit per-sample state machine, shared by eager series synthesis
// and the incremental UtilCursor so both produce identical bits.
type utilState struct {
	p          ClassParams
	start      float64
	n          int
	base       float64
	amp        float64
	phase      float64
	burstProb  float64
	noise      float64
	burstLeft  int
	burstLevel float64
}

// init performs the per-VM header draws. The draw order (base, amp,
// phase, burst scale) is the generator's historical order and must not
// change: it defines the utilisation stream.
func (u *utilState) init(rng *rand.Rand, p ClassParams, start, life float64) {
	n := int(math.Ceil(life / SampleInterval))
	if n < 1 {
		n = 1
	}
	u.p, u.start, u.n = p, start, n
	base := math.Exp(p.BaseLogMean + p.BaseLogStd*rng.NormFloat64())
	if base > 90 {
		base = 90
	}
	u.base = base
	u.amp = p.DiurnalAmpMin + rng.Float64()*(p.DiurnalAmpMax-p.DiurnalAmpMin)
	u.phase = rng.Float64() * 86400
	// Per-VM burst propensity: scale the class burst probability by a
	// random factor so some VMs are consistently calm and others spiky,
	// producing the p95 spread of Figure 8.
	burstScale := math.Exp(0.8 * rng.NormFloat64())
	bp := p.BurstProb * burstScale
	if bp > 0.5 {
		bp = 0.5
	}
	u.burstProb = bp
	u.noise, u.burstLeft, u.burstLevel = 0, 0, 0
}

// next synthesizes sample i. Callers must request samples in order
// (0, 1, 2, ...) — the per-sample draws are a sequential stream.
func (u *utilState) next(rng *rand.Rand, i int) float64 {
	ts := u.start + float64(i)*SampleInterval
	diurnal := 1 + u.amp*math.Sin(2*math.Pi*(ts+u.phase)/86400)
	u.noise = u.p.NoiseCorr*u.noise + rng.NormFloat64()*u.p.NoiseStd
	v := u.base*diurnal + u.noise

	if u.burstLeft > 0 {
		u.burstLeft--
		if u.burstLevel > v {
			v = u.burstLevel
		}
	} else if rng.Float64() < u.burstProb {
		if u.p.BurstMeanLen > 1 {
			u.burstLeft = 1 + int(rng.ExpFloat64()*(u.p.BurstMeanLen-1))
		}
		u.burstLevel = u.p.BurstLevelMin + rng.Float64()*(u.p.BurstLevelMax-u.p.BurstLevelMin)
		if u.burstLevel > v {
			v = u.burstLevel
		}
	}

	if v < 0.5 {
		v = 0.5
	}
	if v > 100 {
		v = 100
	}
	return v
}

// SeriesSynth synthesizes full utilisation series from VMParams,
// reusing one rand.Rand + source across calls so a consumer walking
// many VMs (admission-time P95, eager materialisation) allocates
// nothing per VM beyond the caller's buffer.
type SeriesSynth struct {
	src vmSource
	rng *rand.Rand
}

// NewSeriesSynth returns a reusable synthesizer. (A constructor rather
// than a zero value: the rand.Rand must wrap the struct's own source.)
func NewSeriesSynth() *SeriesSynth {
	s := &SeriesSynth{}
	s.rng = rand.New(&s.src)
	return s
}

// Append appends p's full utilisation series to buf and returns it.
func (sy *SeriesSynth) Append(p VMParams, buf []float64) []float64 {
	sy.src.state = p.UtilSeed
	var u utilState
	u.init(sy.rng, p.P, p.Start, p.End-p.Start)
	for i := 0; i < u.n; i++ {
		buf = append(buf, u.next(sy.rng, i))
	}
	return buf
}

// UtilCursor reads one live VM's utilisation samples incrementally:
// O(1) amortised per forward read, ~200 bytes of state, no memoised
// series. Backward reads replay from the seed (correct but O(n));
// the simulation only ever reads forward. The zero value is unusable —
// construct with NewUtilCursor and (re)bind VMs with Reset, which is
// what lets an engine recycle cursors through a free list.
type UtilCursor struct {
	src        vmSource
	rng        *rand.Rand
	u          utilState
	seed       uint64
	start, end float64
	next       int     // samples [0, next) have been generated
	last       float64 // sample next-1
}

// NewUtilCursor returns an unbound cursor.
func NewUtilCursor() *UtilCursor {
	c := &UtilCursor{}
	c.rng = rand.New(&c.src)
	return c
}

// Reset binds the cursor to p, performing the series header draws.
func (c *UtilCursor) Reset(p VMParams) {
	c.seed = p.UtilSeed
	c.start, c.end = p.Start, p.End
	c.src.state = p.UtilSeed
	c.u.init(c.rng, p.P, p.Start, p.End-p.Start)
	c.next, c.last = 0, 0
}

// At returns the utilisation sample covering absolute time t, with
// exactly VMRecord.UtilAt's semantics: 0 outside [start, end), and the
// final sample covers any trailing partial interval.
func (c *UtilCursor) At(t float64) float64 {
	if t < c.start || t >= c.end {
		return 0
	}
	i := int((t - c.start) / SampleInterval)
	if i >= c.u.n {
		i = c.u.n - 1
	}
	if i < c.next-1 {
		// Backward read: replay the stream from its seed.
		c.src.state = c.seed
		c.u.init(c.rng, c.u.p, c.start, c.end-c.start)
		c.next, c.last = 0, 0
	}
	for c.next <= i {
		c.last = c.u.next(c.rng, c.next)
		c.next++
	}
	return c.last
}

// Stream generates a synthetic trace lazily: Params(i) is a pure
// function of the construction config and i, so any number of engines
// (or goroutines) may share one Stream — it is immutable after
// construction.
type Stream struct {
	kind    Scenario
	n       int
	seed    int64
	horizon float64
	// diurnalParams are the widened-amplitude class parameters of the
	// diurnal scenario.
	diurnalParams [3]ClassParams
	// Bursty-scenario shape: flash-crowd windows and membership count.
	crowd   ClassParams
	windows []float64
	nCrowd  int
}

// NewStream builds the streaming form of GenerateScenario(cfg). A
// finite duration below one sample interval is raised to one; a NaN or
// ±Inf duration is an error, since every lifetime and sample index is
// derived from it.
func NewStream(cfg ScenarioConfig) (*Stream, error) {
	if math.IsNaN(cfg.Duration) || math.IsInf(cfg.Duration, 0) {
		return nil, fmt.Errorf("trace: duration %g is not finite", cfg.Duration)
	}
	if cfg.NumVMs < 0 {
		cfg.NumVMs = 0
	}
	if cfg.Duration < SampleInterval {
		cfg.Duration = SampleInterval
	}
	s := &Stream{n: cfg.NumVMs, seed: cfg.Seed, horizon: cfg.Duration}
	switch cfg.Kind {
	case "", ScenarioAzure:
		s.kind = ScenarioAzure
	case ScenarioDiurnal:
		s.kind = ScenarioDiurnal
		s.diurnalParams = azureParams
		for c := range s.diurnalParams {
			s.diurnalParams[c].DiurnalAmpMin = 0.6
			s.diurnalParams[c].DiurnalAmpMax = 1.0
		}
	case ScenarioBursty:
		s.kind = ScenarioBursty
		// Flash-crowd VMs run hot from launch: high floor, frequent
		// bursts.
		s.crowd = ClassParams{
			BaseLogMean: math.Log(45), BaseLogStd: 0.3,
			DiurnalAmpMin: 0, DiurnalAmpMax: 0.1,
			NoiseStd: 6, NoiseCorr: 0.5,
			BurstProb: 0.15, BurstMeanLen: 4,
			BurstLevelMin: 70, BurstLevelMax: 100,
		}
		// One crowd window per trace day at a random daytime hour; the
		// window schedule is trace-level shape state drawn from its own
		// seed channel.
		var src vmSource
		src.state = streamSeed(cfg.Seed, 0, chShape)
		days := int(cfg.Duration/86400) + 1
		for d := 0; d < days; d++ {
			at := float64(d)*86400 + 8*3600 + src.Float64()*10*3600
			if at < cfg.Duration {
				s.windows = append(s.windows, at)
			}
		}
		s.nCrowd = cfg.NumVMs / 3
		if len(s.windows) == 0 {
			s.nCrowd = 0
		}
	case ScenarioHeavyTail:
		s.kind = ScenarioHeavyTail
	default:
		return nil, fmt.Errorf("trace: unknown scenario %q", cfg.Kind)
	}
	return s, nil
}

// NewNamedStream parses a scenario name and builds its stream — the
// streaming analogue of GenerateNamed.
func NewNamedStream(name string, numVMs int, duration float64, seed int64) (*Stream, error) {
	kind, err := ParseScenario(name)
	if err != nil {
		return nil, err
	}
	return NewStream(ScenarioConfig{Kind: kind, NumVMs: numVMs, Duration: duration, Seed: seed})
}

// Len returns the number of VMs in the stream.
func (s *Stream) Len() int { return s.n }

// Params generates VM i's parameter record. Pure: same (stream, i) →
// same record, any call order, safe for concurrent use.
func (s *Stream) Params(i int) VMParams {
	var src vmSource
	src.state = streamSeed(s.seed, i, chParams)
	p := VMParams{Index: i, UtilSeed: streamSeed(s.seed, i, chUtil)}
	switch s.kind {
	case ScenarioDiurnal:
		s.diurnalVM(&src, &p)
	case ScenarioBursty:
		s.burstyVM(&src, &p)
	case ScenarioHeavyTail:
		s.heavyTailVM(&src, &p)
	default:
		s.azureVM(&src, &p)
	}
	return p
}

// pickSize draws the VM's core count and memory, shared by every
// scenario (draw order: cores, then memory per core).
func pickSize(src *vmSource, p *VMParams) {
	p.Cores = pickWeightedCores(src)
	memMB := float64(p.Cores) * pickWeightedMemPerCore(src) * 1024
	// Cap at 96 GB: the dataset's VM sizes all fit the paper's
	// 48-CPU/128-GB servers with headroom.
	if memMB > 98304 {
		memMB = 98304
	}
	p.MemoryMB = memMB
}

// diurnalArrival draws a near-stationary arrival offset in
// [-life, horizon] accept-rejected against 1 + amp*sin so short- and
// medium-lived VMs concentrate in daytime hours.
func diurnalArrival(src *vmSource, life, horizon, amp float64) float64 {
	start0 := -life + src.Float64()*(horizon+life)
	for src.Float64() > (1+amp*math.Sin(2*math.Pi*start0/86400))/(1+amp) {
		start0 = -life + src.Float64()*(horizon+life)
	}
	return start0
}

// azureVM draws the calibrated Azure-like default: class, size,
// lifetime, then a diurnally modulated arrival.
func (s *Stream) azureVM(src *vmSource, p *VMParams) {
	p.Class = pickClass(src)
	pickSize(src, p)
	life := pickLifetime(src, s.horizon)
	const diurnalArrivalAmp = 0.8
	start0 := diurnalArrival(src, life, s.horizon, diurnalArrivalAmp)
	p.Start, p.End = clipWindow(start0, life, s.horizon)
	p.P = azureParams[p.Class]
}

// diurnalVM exaggerates the day/night cycle: arrival amplitude near 1
// and widened per-class diurnal amplitude bands.
func (s *Stream) diurnalVM(src *vmSource, p *VMParams) {
	p.Class = pickClass(src)
	life := pickLifetime(src, s.horizon)
	const arrivalAmp = 0.95
	start0 := diurnalArrival(src, life, s.horizon, arrivalAmp)
	pickSize(src, p)
	p.Start, p.End = clipWindow(start0, life, s.horizon)
	p.P = s.diurnalParams[p.Class]
}

// burstyVM: the first third of indices are flash-crowd members pinned
// to per-day windows; the rest are calm Poisson-like background.
func (s *Stream) burstyVM(src *vmSource, p *VMParams) {
	if p.Index < s.nCrowd {
		// Flash-crowd member: arrives inside a window, lives 15-90 min.
		w := s.windows[p.Index%len(s.windows)]
		start0 := w + src.Float64()*1800
		life := 900 + src.Float64()*4500
		pickSize(src, p)
		p.Class = Interactive
		p.Start, p.End = clipWindow(start0, life, s.horizon)
		p.P = s.crowd
		return
	}
	p.Class = pickClass(src)
	life := pickLifetime(src, s.horizon)
	start0 := -life + src.Float64()*(s.horizon+life)
	pickSize(src, p)
	p.Start, p.End = clipWindow(start0, life, s.horizon)
	p.P = azureParams[p.Class]
}

// heavyTailVM draws Pareto(alpha=1.2, scale=15min) lifetimes; the
// entrenched tail (>1 day) bursts harder and longer.
func (s *Stream) heavyTailVM(src *vmSource, p *VMParams) {
	const (
		alpha = 1.2
		scale = 900.0
	)
	p.Class = pickClass(src)
	life := scale * math.Pow(1-src.Float64(), -1/alpha)
	if life > s.horizon {
		life = s.horizon
	}
	start0 := -life + src.Float64()*(s.horizon+life)
	pickSize(src, p)
	p.Start, p.End = clipWindow(start0, life, s.horizon)
	p.P = azureParams[p.Class]
	if life > 86400 {
		p.P.BurstProb *= 2
		p.P.BurstMeanLen *= 2
	}
}

// materializeBlock is how many VMs Materialize lays out together. A
// block's records share one []VMRecord, its series one []float64 and
// its IDs one string, so the eager trace costs three allocations per
// block instead of three per VM.
const materializeBlock = 1024

// Materialize builds the full eager trace. The eager generators
// delegate here, so eager == streamed bit-for-bit by construction.
// Each record's CPUUtil is capped at its own length, so an append to
// one series reallocates rather than writing into its neighbour's.
func (s *Stream) Materialize() *AzureTrace {
	t := &AzureTrace{VMs: make([]*VMRecord, 0, s.n)}
	sy := NewSeriesSynth()
	params := make([]VMParams, 0, min(s.n, materializeBlock))
	ids := make([]byte, 0, cap(params)*idLen(max(s.n-1, 0)))
	for lo := 0; lo < s.n; lo += materializeBlock {
		hi := min(lo+materializeBlock, s.n)
		params, ids = params[:0], ids[:0]
		samples := 0
		for i := lo; i < hi; i++ {
			p := s.Params(i)
			params = append(params, p)
			samples += p.Samples()
			ids = appendID(ids, i)
		}
		recs := make([]VMRecord, len(params))
		util := make([]float64, 0, samples)
		idStr := string(ids)
		for j, p := range params {
			from := len(util)
			util = sy.Append(p, util)
			id := idStr[:idLen(p.Index)]
			idStr = idStr[len(id):]
			recs[j] = VMRecord{
				ID:       id,
				Class:    p.Class,
				Cores:    p.Cores,
				MemoryMB: p.MemoryMB,
				Start:    p.Start,
				End:      p.End,
				CPUUtil:  util[from:len(util):len(util)],
			}
			t.VMs = append(t.VMs, &recs[j])
		}
	}
	return t
}

// idLen is the length of index's trace identifier.
func idLen(index int) int {
	n := 1
	for ; index >= 10; index /= 10 {
		n++
	}
	return len("vm-") + max(n, 6)
}
