package objectstore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"scoop/internal/metrics"
	"scoop/internal/pushdown"
	"scoop/internal/storlet"
)

// NodeStats accounts an object node's work — the storage-side resource
// consumption the paper measures in Fig. 10 (CPU spent on filters vs. plain
// serving).
type NodeStats struct {
	// BytesRead counts bytes read from local storage: what the caller (or
	// the filter chain) actually pulled from the store stream, charged as
	// it is read. A GET open to the object's end that is closed early
	// charges only the prefix it read.
	BytesRead int64
	// BytesSent counts bytes returned to the proxy (post-filter).
	BytesSent int64
	// FilterTime is wall time spent inside pushdown filters, from the
	// chain's start to the filtered stream's Close.
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

	// The NodeStats counters, each added to as the work happens.
	bytesRead, bytesSent, filterNanos metrics.Counter
	requests, filteredRequests, errs  metrics.Counter
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

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() NodeStats {
	return NodeStats{
		BytesRead:        n.bytesRead.Load(),
		BytesSent:        n.bytesSent.Load(),
		FilterTime:       time.Duration(n.filterNanos.Load()),
		Requests:         n.requests.Load(),
		FilteredRequests: n.filteredRequests.Load(),
		Errors:           n.errs.Load(),
	}
}

// ResetStats zeroes the counters (benchmarks reuse clusters).
func (n *Node) ResetStats() {
	for _, c := range []*metrics.Counter{&n.bytesRead, &n.bytesSent, &n.filterNanos, &n.requests, &n.filteredRequests, &n.errs} {
		c.Reset()
	}
}

// Put stores a replica of the object.
func (n *Node) Put(ctx context.Context, info ObjectInfo, r io.Reader) (ObjectInfo, error) {
	if n.down.Load() {
		n.errs.Inc()
		return ObjectInfo{}, fmt.Errorf("%w: %s", ErrNodeDown, n.name)
	}
	si, err := n.store.Put(ctx, info, r)
	if err != nil {
		n.errs.Inc()
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
		n.errs.Inc()
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
		n.errs.Inc()
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
	n.requests.Inc()
	if len(tasks) == 0 {
		return metrics.CountReader(rc, &n.bytesRead, &n.bytesSent), info, nil
	}
	n.filteredRequests.Inc()
	sctx := &storlet.Context{
		Ctx:        ctx,
		RangeStart: start,
		RangeEnd:   end,
		ObjectSize: info.Size,
	}
	filterStart := time.Now()
	out, err := n.engine.RunChain(sctx, tasks, metrics.CountReader(rc, &n.bytesRead))
	if err != nil {
		n.errs.Inc()
		return nil, ObjectInfo{}, fmt.Errorf("node %s: %w", n.name, err)
	}
	return &filterTimed{ReadCloser: metrics.CountReader(out, &n.bytesSent), node: n, start: filterStart}, info, nil
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
		n.errs.Inc()
		return ObjectInfo{}, fmt.Errorf("%w: %s", ErrNodeDown, n.name)
	}
	return n.store.Head(ctx, path)
}

// Delete removes a replica.
func (n *Node) Delete(ctx context.Context, path string) error {
	if n.down.Load() {
		n.errs.Inc()
		return fmt.Errorf("%w: %s", ErrNodeDown, n.name)
	}
	n.store.Delete(ctx, path)
	return nil
}

// List lists replicas by path prefix.
func (n *Node) List(ctx context.Context, prefix string) ([]ObjectInfo, error) {
	if n.down.Load() {
		n.errs.Inc()
		return nil, fmt.Errorf("%w: %s", ErrNodeDown, n.name)
	}
	return n.store.List(ctx, prefix), nil
}

// filterTimed charges a filtered GET's wall time to the node when the
// stream closes.
type filterTimed struct {
	io.ReadCloser
	node   *Node
	start  time.Time
	closed bool
}

func (f *filterTimed) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	err := f.ReadCloser.Close()
	f.node.filterNanos.Add(int64(time.Since(f.start)))
	return err
}
