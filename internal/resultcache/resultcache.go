// Package resultcache is the proxy-side cache for filtered GET results.
//
// A cached body is keyed by (object ETag, canonical filter-chain hash, byte
// range). The ETag is a content hash, so once an entry's bytes are proven to
// come from the keyed ETag (the fill guard below), the entry can never be
// stale — it is a pure function of its key. Invalidation on PUT/repair is
// therefore memory reclamation plus cutting off in-flight fills, not a
// correctness mechanism in itself.
//
// Concurrent identical requests collapse into one execution (singleflight):
// the first caller becomes the leader and runs the fill; every concurrent
// caller becomes a waiter on the same flight, replaying the buffered prefix
// and then tailing the live stream. The fill runs on a context detached from
// the leader's request, so a leader disconnect does not wedge the waiters;
// when the LAST waiter detaches before the fill completes, the fill is
// canceled so no orphan filter execution keeps streaming into the void.
//
// Degradation rules (the PR-5 ladder):
//   - A fill that fails before its first byte returns the error to the
//     leader synchronously, so typed 503s (breaker open, overloaded,
//     not-deployed) keep their shape.
//   - A fill that dies mid-stream poisons the flight: waiters see the error
//     exactly where the stream died, and the partial body is never stored.
//   - A result that outgrows the per-entry bound keeps streaming to already
//     attached waiters (bounded by one result) but is never stored, and new
//     arrivals bypass to the uncached path instead of joining.
//   - The cache never turns a cacheable request into a 5xx: every refusal is
//     a bypass to the normal GET path.
package resultcache

import (
	"bytes"
	"container/list"
	"context"
	"io"
	"sync"

	"scoop/internal/metrics"
	"scoop/internal/pushdown"
)

// Status classifies how a request was served, and flows to the client in the
// X-Scoop-Cache response header.
type Status string

const (
	// StatusHit — served from a completed cached entry.
	StatusHit Status = "hit"
	// StatusMiss — this request led the fill (leader).
	StatusMiss Status = "miss"
	// StatusCollapsed — joined another request's in-flight fill.
	StatusCollapsed Status = "collapsed"
	// StatusBypass — the cache refused (overflowed/poisoned flight, or the
	// caller decided the chain is uncacheable); serve uncached.
	StatusBypass Status = "bypass"
)

// Key identifies one cacheable result. ETag is the object content hash,
// Chain is pushdown.ChainHash of the canonical filter chain, Start/End are
// the byte range of the SOURCE object the chain ran over (End 0 = to EOF,
// matching GetOptions).
type Key struct {
	ETag  string
	Chain string
	Start int64
	End   int64
}

// FillInfo carries the metadata the fill observed at its commit point. The
// cache compares FillInfo.ETag against Key.ETag: if a replica raced ahead
// (or behind) of the registry, the bytes belong to a DIFFERENT key and the
// flight is marked no-store. Without this guard a fill keyed on E1 could
// permanently cache E2's bytes under E1.
type FillInfo struct {
	ETag string
}

// FillFunc opens the uncached result stream. It must respect ctx, and must
// return an error (rather than a reader) for every pre-first-byte failure so
// the leader's error keeps its typed shape.
type FillFunc func(ctx context.Context) (io.ReadCloser, FillInfo, error)

// Config bounds and wires a Cache.
type Config struct {
	// Capacity is the LRU bound in body bytes. <= 0 disables storage:
	// singleflight collapsing still works, but nothing is retained.
	Capacity int64
	// MaxEntryBytes bounds a single stored body. 0 defaults to Capacity/8,
	// so one giant dashboard export cannot evict the whole working set.
	MaxEntryBytes int64
	// Proven reports whether a filter name has a determinism proof
	// (detmanifest.IsProven in production). Nil proves nothing.
	Proven func(string) bool
	// Metrics receives the resultcache.* counters; nil disables them.
	Metrics *metrics.Registry
}

// Stats is a point-in-time snapshot for tests and debugging.
type Stats struct {
	Entries int
	Bytes   int64
	Flights int
}

// Cache is the result cache. All maps are guarded by mu; per-flight state is
// guarded by the flight's own mutex. Lock order is always Cache.mu before
// flight.mu, and flight completion releases flight.mu before settling under
// Cache.mu — never the reverse.
type Cache struct {
	cfg      Config
	maxEntry int64

	mu      sync.Mutex
	entries map[Key]*entry
	flights map[Key]*flight
	lru     *list.List // front = most recent; values are *entry
	byPath  map[string]map[Key]struct{}
	bytes   int64
}

type entry struct {
	key  Key
	path string
	body []byte
	elem *list.Element
}

// New builds a Cache from cfg.
func New(cfg Config) *Cache {
	maxEntry := cfg.MaxEntryBytes
	if maxEntry <= 0 {
		maxEntry = cfg.Capacity / 8
	}
	if maxEntry <= 0 {
		// Storage disabled; keep a sane bound so flight buffers that will
		// never be stored still mark overflow and shed new joiners.
		maxEntry = 64 << 20
	}
	return &Cache{
		cfg:      cfg,
		maxEntry: maxEntry,
		entries:  make(map[Key]*entry),
		flights:  make(map[Key]*flight),
		lru:      list.New(),
		byPath:   make(map[string]map[Key]struct{}),
	}
}

func (c *Cache) count(name string) {
	if c.cfg.Metrics != nil {
		c.cfg.Metrics.Counter("resultcache." + name).Inc()
	}
}

// Cacheable reports whether a filter chain may be cached at all: non-empty
// and every filter proven deterministic. Callers must bypass the cache
// entirely when this is false.
func (c *Cache) Cacheable(tasks []*pushdown.Task) bool {
	if c == nil {
		return false
	}
	ok := pushdown.CacheableChain(tasks, c.cfg.Proven)
	if !ok {
		c.count("uncacheable")
	}
	return ok
}

// GetOrStart serves key from the cache, joins an in-flight fill, or starts a
// new fill by calling fill synchronously (so pre-first-byte errors return
// here with their typed shape intact).
//
// Returns (reader, status, nil) on success; (nil, StatusBypass, nil) when
// the caller must fall back to the uncached path; (nil, StatusMiss, err)
// when this caller led a fill whose open failed.
//
// ctx governs only THIS caller's reads (and its membership in the flight);
// the fill itself runs on a detached context that is canceled only when the
// last waiter detaches before completion.
func (c *Cache) GetOrStart(ctx context.Context, key Key, path string, fill FillFunc) (io.ReadCloser, Status, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		c.count("hits")
		// Entries are never mutated after commit, so the reader stays valid
		// across eviction and invalidation.
		return io.NopCloser(bytes.NewReader(e.body)), StatusHit, nil
	}
	if f, ok := c.flights[key]; ok {
		f.mu.Lock()
		joinable := !f.overflow && !(f.done && f.err != nil)
		if joinable {
			f.waiters++
		}
		f.mu.Unlock()
		c.mu.Unlock()
		if !joinable {
			c.count("bypasses")
			return nil, StatusBypass, nil
		}
		c.count("collapses")
		return &flightReader{f: f, ctx: ctx}, StatusCollapsed, nil
	}

	// Become the leader: register the flight before running the fill so
	// concurrent identical requests collapse onto it immediately.
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	f := &flight{c: c, key: key, path: path, wake: make(chan struct{}), waiters: 1, cancel: cancel}
	c.flights[key] = f
	c.indexPathLocked(path, key)
	c.mu.Unlock()
	c.count("misses")

	src, info, err := fill(fctx)
	if err != nil {
		// Pre-first-byte failure: poison the flight so any waiters that
		// joined while the fill was opening observe the same error, and
		// return it to the leader with its type intact.
		f.finish(err)
		cancel()
		return nil, StatusMiss, err
	}
	if info.ETag != key.ETag {
		// The replica served bytes for a different object version than the
		// registry promised when the key was built. The stream is still a
		// valid response for the CALLER (it is the current content), but it
		// must never be stored under this key.
		f.mu.Lock()
		f.noStore = true
		f.mu.Unlock()
		c.count("fill_mismatch")
	}
	go f.pump(fctx, src)
	return &flightReader{f: f, ctx: ctx}, StatusMiss, nil
}

// InvalidatePath removes every entry and cuts off every in-flight fill for
// an object path. Called by the proxy after the registry quorum commit point
// of a PUT, and after a successful repair copy.
func (c *Cache) InvalidatePath(path string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	keys := c.byPath[path]
	// removeEntryLocked unindexes from this same set while we range over
	// it, so capture the count up front for the counter decision below.
	invalidated := len(keys)
	var cut []*flight
	for key := range keys {
		if e, ok := c.entries[key]; ok {
			c.removeEntryLocked(e)
		}
		if f, ok := c.flights[key]; ok {
			delete(c.flights, key)
			cut = append(cut, f)
		}
	}
	delete(c.byPath, path)
	c.mu.Unlock()
	// The linearization point is the map surgery above (settle re-checks
	// flights[key] under c.mu); marking noStore as well closes the window
	// where a flight finishes between our unlock and its settle.
	for _, f := range cut {
		f.mu.Lock()
		f.noStore = true
		f.mu.Unlock()
	}
	if invalidated > 0 {
		c.count("invalidations")
	}
}

// Snapshot returns current occupancy.
func (c *Cache) Snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Entries: len(c.entries), Bytes: c.bytes, Flights: len(c.flights)}
}

func (c *Cache) indexPathLocked(path string, key Key) {
	set := c.byPath[path]
	if set == nil {
		set = make(map[Key]struct{})
		c.byPath[path] = set
	}
	set[key] = struct{}{}
}

func (c *Cache) unindexPathLocked(path string, key Key) {
	if set, ok := c.byPath[path]; ok {
		delete(set, key)
		if len(set) == 0 {
			delete(c.byPath, path)
		}
	}
}

func (c *Cache) removeEntryLocked(e *entry) {
	c.lru.Remove(e.elem)
	delete(c.entries, e.key)
	c.unindexPathLocked(e.path, e.key)
	c.bytes -= int64(len(e.body))
}

// settle is the single place a flight leaves the flights map. If store is
// still permitted it commits the body as an entry and evicts LRU victims
// past capacity.
func (c *Cache) settle(f *flight, store bool, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.flights[f.key] != f {
		// Invalidation already removed the flight; its bytes are dead.
		return
	}
	delete(c.flights, f.key)
	if !store || c.cfg.Capacity <= 0 || int64(len(body)) > c.maxEntry {
		c.unindexPathLocked(f.path, f.key)
		return
	}
	e := &entry{key: f.key, path: f.path, body: body}
	e.elem = c.lru.PushFront(e)
	c.entries[f.key] = e
	c.bytes += int64(len(body))
	for c.bytes > c.cfg.Capacity {
		back := c.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*entry)
		c.removeEntryLocked(victim)
		c.count("evictions")
	}
}

// flight is one in-progress fill. buf only ever grows; wake is closed and
// replaced on every append, so waiters tail the stream without polling.
type flight struct {
	c    *Cache
	key  Key
	path string

	mu       sync.Mutex
	buf      []byte
	wake     chan struct{}
	done     bool
	err      error
	waiters  int
	overflow bool
	noStore  bool
	cancel   context.CancelFunc
}

// pump drains the fill stream into the shared buffer. It is the only writer
// of buf.
func (f *flight) pump(fctx context.Context, src io.ReadCloser) {
	chunk := make([]byte, 32<<10)
	for {
		n, err := src.Read(chunk)
		if n > 0 {
			f.append(chunk[:n])
		}
		if err == io.EOF {
			_ = src.Close()
			f.finish(nil)
			return
		}
		if err != nil {
			_ = src.Close()
			// A mid-stream death poisons the flight. Distinguish a genuine
			// filter/replica failure from our own abandonment cancel (last
			// waiter left): the latter is not a poisoning event.
			if fctx.Err() == nil {
				f.c.count("poisons")
			}
			f.finish(err)
			return
		}
	}
}

func (f *flight) append(p []byte) {
	f.mu.Lock()
	f.buf = append(f.buf, p...)
	if !f.overflow && int64(len(f.buf)) > f.c.maxEntry {
		// Keep streaming to attached waiters (memory is bounded by this one
		// result), but never store, and shed new joiners to bypass.
		f.overflow = true
		f.c.count("overflows")
	}
	close(f.wake)
	f.wake = make(chan struct{})
	f.mu.Unlock()
}

// finish marks the flight complete and settles it into (or out of) the
// cache. Idempotent; the first caller wins.
func (f *flight) finish(err error) {
	f.mu.Lock()
	if f.done {
		f.mu.Unlock()
		return
	}
	f.done = true
	f.err = err
	store := err == nil && !f.overflow && !f.noStore
	body := f.buf
	close(f.wake)
	f.mu.Unlock()
	f.c.settle(f, store, body)
}

// detach removes one waiter. When the last waiter leaves an unfinished
// flight, the fill context is canceled so the pump and the underlying
// filter execution stop promptly.
func (f *flight) detach() {
	f.mu.Lock()
	f.waiters--
	abandon := f.waiters == 0 && !f.done
	f.mu.Unlock()
	if abandon {
		f.cancel()
	}
}

// flightReader streams a flight to one waiter: replay the buffered prefix,
// then tail live appends.
type flightReader struct {
	f      *flight
	ctx    context.Context
	pos    int
	closed bool
}

func (r *flightReader) Read(p []byte) (int, error) {
	for {
		r.f.mu.Lock()
		if r.pos < len(r.f.buf) {
			n := copy(p, r.f.buf[r.pos:])
			r.pos += n
			r.f.mu.Unlock()
			return n, nil
		}
		if r.f.done {
			err := r.f.err
			r.f.mu.Unlock()
			if err != nil {
				return 0, err
			}
			return 0, io.EOF
		}
		wake := r.f.wake
		r.f.mu.Unlock()
		select {
		case <-wake:
		case <-r.ctx.Done():
			return 0, r.ctx.Err()
		}
	}
}

func (r *flightReader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.f.detach()
	return nil
}
