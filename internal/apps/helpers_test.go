package apps

import (
	"vmdeflate/internal/sim"
	"vmdeflate/internal/stats"
)

func simEngineForTest() *sim.Engine { return sim.NewEngine() }

// Mean returns the mean response time of served requests.
func (m *Metrics) Mean() float64 { return stats.Mean(m.ResponseTimes) }
