package apps

import "vmdeflate/internal/sim"

func simEngineForTest() *sim.Engine { return sim.NewEngine() }
