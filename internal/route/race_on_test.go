//go:build race

package route

// raceEnabled reports whether the test binary was built with -race. The
// race detector slows the routing core several-fold, so wall-clock
// bounds are asserted only without it.
const raceEnabled = true
