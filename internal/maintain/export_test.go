package maintain

// PlanCacheSizes reports how many track plans and compiled steps m holds.
func (m *Maintainer) PlanCacheSizes() (tracks, steps int) {
	return len(m.plans), len(m.steps)
}

// NetAll makes m keep and net every join delta, as the engine did before
// joins streamed into aggregates: the oracle of the differential tests.
func (m *Maintainer) NetAll() { m.netAll = true }

// DisableMQO turns off m's per-window shared subplan memo, so every
// query goes back to storage: the per-query oracle of the MQO
// equivalence tests.
func (m *Maintainer) DisableMQO() { m.disableMQO = true }
