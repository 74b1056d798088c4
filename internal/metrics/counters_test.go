package metrics

import (
	"io"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a") != c {
		t.Error("Counter is not get-or-create: second lookup returned a new counter")
	}
	snap := r.Snapshot()
	if snap["a"] != 5 {
		t.Errorf("snapshot = %v, want a=5", snap)
	}
}

func TestNilRegistryAndCounterAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("anything")
	c.Inc() // must not panic
	c.Add(3)
	c.Reset()
	if c.Load() != 0 {
		t.Error("nil counter should read zero")
	}
	if r.Snapshot() != nil {
		t.Error("nil registry should report nothing")
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("hits").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Load(); got != 8000 {
		t.Fatalf("hits = %d, want 8000", got)
	}
}

func TestCountReader(t *testing.T) {
	var a, b Counter
	rc := CountReader(io.NopCloser(strings.NewReader("hello world")), &a, nil, &b)
	buf := make([]byte, 4)
	if _, err := io.ReadFull(rc, buf); err != nil {
		t.Fatal(err)
	}
	// Counts are current while the stream is open, not deferred to Close.
	if a.Load() != 4 || b.Load() != 4 {
		t.Fatalf("after 4 bytes: a=%d b=%d", a.Load(), b.Load())
	}
	if _, err := io.ReadAll(rc); err != nil {
		t.Fatal(err)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if a.Load() != 11 || b.Load() != 11 {
		t.Errorf("after EOF: a=%d b=%d, want 11", a.Load(), b.Load())
	}
	a.Reset()
	if a.Load() != 0 || b.Load() != 11 {
		t.Errorf("after Reset: a=%d b=%d", a.Load(), b.Load())
	}
}
