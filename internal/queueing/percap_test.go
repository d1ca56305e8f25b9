package queueing

import "fmt"

// SetPerJobCap is the knob the tests turn to hold the closed forms and
// work conservation to the station at caps other than the default one
// core; every shipped station keeps that default.

// SetPerJobCap overrides the per-job service rate cap (cores). Useful
// for modelling multi-threaded request handlers. A cap must be
// positive: zero or negative caps are configuration errors (the old
// behaviour silently pinned them to 1e-9, which starved the station
// while looking healthy).
func (s *PSStation) SetPerJobCap(c float64) error {
	if c <= 0 {
		return fmt.Errorf("queueing: per-job cap %g must be positive", c)
	}
	s.advance(s.eng.Now())
	s.perJobCap = c
	s.reschedule()
	return nil
}
