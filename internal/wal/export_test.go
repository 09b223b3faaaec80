package wal

// Posted reports whether a window waits in g's hand-off, taken neither
// by the log writer nor by its own fence.
func Posted(g *Manager) bool { return g.slot.Load() != nil }
