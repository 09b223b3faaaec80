package maintain

// PlanCacheSizes reports how many track plans and compiled steps m holds.
func (m *Maintainer) PlanCacheSizes() (tracks, steps int) {
	return len(m.plans), len(m.steps)
}
