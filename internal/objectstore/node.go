package objectstore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"scoop/internal/pushdown"
	"scoop/internal/storlet"
)

// NodeStats accounts an object node's work — the storage-side resource
// consumption the paper measures in Fig. 10 (CPU spent on filters vs. plain
// serving).
type NodeStats struct {
	// BytesRead counts bytes read from local storage: what the caller (or
	// the filter chain) actually pulled from the store stream, charged when
	// the stream closes. A GET open to the object's end that is closed
	// early charges only the prefix it read.
	BytesRead int64
	// BytesSent counts bytes returned to the proxy (post-filter).
	BytesSent int64
	// FilterTime is wall time spent inside pushdown filters.
	FilterTime time.Duration
	// Requests counts GET requests served.
	Requests int64
	// FilteredRequests counts GETs that ran at least one pushdown filter.
	FilteredRequests int64
	// Errors counts operations this node failed (down, storage error) —
	// the per-node denominator for failover rates in the chaos suite.
	Errors int64
}

// Node is one object server: a storage engine plus the storlet runtime that
// executes object-stage pushdown filters next to the data.
type Node struct {
	name   string
	store  Store
	engine *storlet.Engine

	down atomic.Bool

	mu    sync.Mutex
	stats NodeStats
}

// NewNode creates a memory-backed object node. Nodes share the engine: in a
// real deployment the registry is distributed with the filter objects;
// sharing is the in-process equivalent.
func NewNode(name string, engine *storlet.Engine) *Node {
	return NewNodeWithStore(name, NewMemStore(), engine)
}

// NewNodeWithStore creates an object node over an explicit storage engine
// (e.g. a DiskStore for persistent deployments).
func NewNodeWithStore(name string, store Store, engine *storlet.Engine) *Node {
	return &Node{name: name, store: store, engine: engine}
}

// Name returns the node's name (its ring identity).
func (n *Node) Name() string { return n.name }

// SetDown marks the node unavailable (failure injection for replica tests).
func (n *Node) SetDown(down bool) { n.down.Store(down) }

// Stats returns a copy of the node's counters.
func (n *Node) Stats() NodeStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// ResetStats zeroes the counters (benchmarks reuse clusters).
func (n *Node) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats = NodeStats{}
}

// countError accounts one failed operation.
func (n *Node) countError() {
	n.mu.Lock()
	n.stats.Errors++
	n.mu.Unlock()
}

// Put stores a replica of the object.
func (n *Node) Put(ctx context.Context, info ObjectInfo, r io.Reader) (ObjectInfo, error) {
	if n.down.Load() {
		n.countError()
		return ObjectInfo{}, fmt.Errorf("%w: %s", ErrNodeDown, n.name)
	}
	si, err := n.store.Put(ctx, info, r)
	if err != nil {
		n.countError()
		return ObjectInfo{}, err
	}
	return si, nil
}

// Get serves bytes [start, end) of the object, streaming them through the
// object-stage tasks of the pushdown chain. It returns the (possibly
// filtered) stream; info describes the stored object, not the stream.
func (n *Node) Get(ctx context.Context, path string, start, end int64, tasks []*pushdown.Task) (io.ReadCloser, ObjectInfo, error) {
	return n.GetVersion(ctx, path, start, end, tasks, "")
}

// GetVersion is Get pinned to a version: when wantETag is non-empty and the
// stored object is any other version, the read fails with errStaleReplica
// BEFORE any filter runs — a stale replica costs the proxy one metadata
// miss, not a storlet invocation.
func (n *Node) GetVersion(ctx context.Context, path string, start, end int64, tasks []*pushdown.Task, wantETag string) (io.ReadCloser, ObjectInfo, error) {
	if n.down.Load() {
		n.countError()
		return nil, ObjectInfo{}, fmt.Errorf("%w: %s", ErrNodeDown, n.name)
	}
	// Pushdown filters over record-structured data must finish the record
	// straddling the range end, so a filtered request is given the stream
	// from start to the object's end; the filter's split logic (RangeEnd)
	// stops it just past the boundary. Plain ranged GETs stay exact.
	fetchEnd := end
	if len(tasks) > 0 {
		fetchEnd = 0 // store convention: to the object's end
	}
	rc, info, err := n.store.Get(ctx, path, start, fetchEnd)
	if err != nil {
		n.countError()
		return nil, ObjectInfo{}, err
	}
	if wantETag != "" && info.ETag != wantETag {
		rc.Close()
		return nil, ObjectInfo{}, fmt.Errorf("node %s: %s holds etag %s, want %s: %w",
			n.name, path, info.ETag, wantETag, errStaleReplica)
	}
	if end <= 0 || end > info.Size {
		end = info.Size
	}
	n.mu.Lock()
	n.stats.Requests++
	if len(tasks) > 0 {
		n.stats.FilteredRequests++
	}
	n.mu.Unlock()
	if len(tasks) == 0 {
		return &countedCloser{rc: rc, node: n}, info, nil
	}
	sctx := &storlet.Context{
		Ctx:        ctx,
		RangeStart: start,
		RangeEnd:   end,
		ObjectSize: info.Size,
	}
	filterStart := time.Now()
	src := &storeCounter{r: rc}
	out, err := n.engine.RunChain(sctx, tasks, src)
	if err != nil {
		rc.Close()
		n.countError()
		return nil, ObjectInfo{}, fmt.Errorf("node %s: %w", n.name, err)
	}
	// The chain never closes its input; tie the store reader's lifetime to
	// the filtered stream so disk-backed stores don't leak descriptors.
	return &countedCloser{rc: out, node: n, filterStart: filterStart, src: src, also: rc}, info, nil
}

// Ping probes the node's storage engine for liveness — the health check's
// view of the node. It exercises a real store operation (a metadata lookup
// on a reserved probe path) so injected store faults (blackouts) fail the
// probe exactly like they fail data requests; the probe object never
// exists, and "not found" from a responsive store is health.
func (n *Node) Ping(ctx context.Context) error {
	if n.down.Load() {
		return fmt.Errorf("%w: %s", ErrNodeDown, n.name)
	}
	_, err := n.store.Head(ctx, "/.probe/ping")
	if err == nil || errors.Is(err, ErrNotFound) {
		return nil
	}
	return fmt.Errorf("objectstore: probe %s: %w", n.name, err)
}

// Head returns a replica's metadata.
func (n *Node) Head(ctx context.Context, path string) (ObjectInfo, error) {
	if n.down.Load() {
		n.countError()
		return ObjectInfo{}, fmt.Errorf("%w: %s", ErrNodeDown, n.name)
	}
	return n.store.Head(ctx, path)
}

// Delete removes a replica.
func (n *Node) Delete(ctx context.Context, path string) error {
	if n.down.Load() {
		n.countError()
		return fmt.Errorf("%w: %s", ErrNodeDown, n.name)
	}
	n.store.Delete(ctx, path)
	return nil
}

// List lists replicas by path prefix.
func (n *Node) List(ctx context.Context, prefix string) ([]ObjectInfo, error) {
	if n.down.Load() {
		n.countError()
		return nil, fmt.Errorf("%w: %s", ErrNodeDown, n.name)
	}
	return n.store.List(ctx, prefix), nil
}

// countedCloser accounts bytes read and sent, and filter wall time, as the
// stream is consumed.
type countedCloser struct {
	rc          io.ReadCloser
	node        *Node
	n           int64
	filterStart time.Time
	// src counts what a filter chain pulled from the store stream; nil for
	// an unfiltered GET, whose bytes read are the bytes sent.
	src    *storeCounter
	closed bool
	// also is an extra resource released on Close (the raw store stream
	// feeding a filter chain).
	also io.Closer
}

func (c *countedCloser) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countedCloser) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	read := c.n
	if c.src != nil {
		read = c.src.n.Load()
	}
	c.node.mu.Lock()
	c.node.stats.BytesRead += read
	c.node.stats.BytesSent += c.n
	if c.src != nil {
		c.node.stats.FilterTime += time.Since(c.filterStart)
	}
	c.node.mu.Unlock()
	err := c.rc.Close()
	if c.also != nil {
		// The chain goroutines may still be draining the store stream;
		// closing rc (the pipe) stops them first, then this is safe.
		if aerr := c.also.Close(); err == nil {
			err = aerr
		}
	}
	return err
}

// storeCounter counts the bytes a filter chain reads from the store stream.
// The chain reads on its own goroutine, so the count is atomic.
type storeCounter struct {
	r io.Reader
	n atomic.Int64
}

func (s *storeCounter) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	s.n.Add(int64(n))
	return n, err
}
