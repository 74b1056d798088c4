// Package metrics holds the named atomic counters and gauges the data path
// reports through: a Registry per deployment tier, read as a whole with
// Snapshot, and CountReader, the one reader that counts stream bytes into
// counters.
package metrics

import (
	"io"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The data path uses
// counters to make every recovery action observable: retries, replica
// failovers, quorum degradations, injected faults.
//
// A nil *Counter is a valid no-op sink, so instrumented code never has to
// guard the "metrics disabled" case.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n may be negative only for test rollbacks; production callers
// should treat counters as monotonic).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value; 0 on a nil counter.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Reset zeroes the counter (stats resets between benchmark runs).
func (c *Counter) Reset() {
	if c != nil {
		c.v.Store(0)
	}
}

// CountReader wraps rc so every Read adds the bytes it returns to each
// counter as the Read returns. The counts are current while the stream is
// open and final once the reader stops reading; nothing waits for Close,
// and Close only closes rc. Nil counters are skipped, so a tier whose
// accounting is off passes nil.
func CountReader(rc io.ReadCloser, counters ...*Counter) io.ReadCloser {
	return &countingReader{rc: rc, to: counters}
}

type countingReader struct {
	rc io.ReadCloser
	to []*Counter
}

func (r *countingReader) Read(p []byte) (int, error) {
	n, err := r.rc.Read(p)
	if n > 0 {
		for _, c := range r.to {
			c.Add(int64(n))
		}
	}
	return n, err
}

func (r *countingReader) Close() error { return r.rc.Close() }

// Registry is a get-or-create set of named counters shared across a
// deployment tier (one per Cluster, one per HTTP client). A nil *Registry
// hands out nil counters, so wiring metrics is always optional.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// NewRegistry returns an empty counter registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]*Counter)}
}

// Counter returns the counter with the given name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Snapshot returns the current value of every counter and gauge.
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters)+len(r.gauges))
	for name, c := range r.counters {
		out[name] = c.Load()
	}
	for name, g := range r.gauges {
		out[name] = g.Load()
	}
	return out
}
