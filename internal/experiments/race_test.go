//go:build race

package experiments

// raceEnabled reports a race-instrumented test binary. The instrumentation
// slows the Go protocol code roughly tenfold but RSA arithmetic far less,
// so timing-shaped claims about the uninstrumented stack do not hold in it.
const raceEnabled = true
