package metrics

import "sync/atomic"

// Counter is a monotonically increasing, concurrency-safe event counter —
// the cheap companion to Recorder for rates background machinery reports
// (checkpoints completed, bytes written, mutations coalesced). The zero
// value is ready to use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Reset zeroes the counter — a counter reset in Prometheus terms, for
// instruments whose owner restarts their measurement window.
func (c *Counter) Reset() { c.v.Store(0) }
