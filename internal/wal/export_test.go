package wal

// Posted reports whether a window waits in g's hand-off, taken neither
// by the log writer nor by its own fence.
func Posted(g *Manager) bool { return g.slot.Load() != nil }

// SetDirectIO turns O_DIRECT on or off for OSFS files reserved from now
// on, so that a test can run the page-cache path on a filesystem that
// accepts O_DIRECT. It returns the setting it replaced.
func SetDirectIO(on bool) bool { return !noDirectIO.Swap(!on) }

// DirectIO reports whether f is a reserved OSFS file writing with
// O_DIRECT.
func DirectIO(f File) bool {
	o, ok := f.(*osFile)
	return ok && o.direct
}
