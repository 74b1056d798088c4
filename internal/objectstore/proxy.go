package objectstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"scoop/internal/metrics"
	"scoop/internal/pushdown"
	"scoop/internal/resultcache"
	"scoop/internal/ring"
	"scoop/internal/storlet"
)

// Registry is the account/container metadata tier shared by all proxies
// (Swift keeps this on the container/account rings of the proxy-metadata
// servers; the paper's testbed runs 6 of them over 60 disks).
type Registry struct {
	mu       sync.RWMutex
	accounts map[string]*accountState
}

// NewRegistry returns an empty metadata registry.
func NewRegistry() *Registry {
	return &Registry{accounts: make(map[string]*accountState)}
}

type accountState struct {
	containers map[string]*containerState
}

type containerState struct {
	policy  ContainerPolicy
	objects map[string]ObjectInfo
}

// ProxyStats accounts a proxy's traffic (Fig. 9(c) measures proxy transmit
// bandwidth with and without Scoop).
type ProxyStats struct {
	Requests       int64
	BytesToClient  int64
	BytesFromNodes int64
	PutBytes       int64
}

// Proxy is a Swift proxy server: it routes object requests through the ring,
// fans out replication on PUT, serves container metadata from the shared
// registry, and hosts the proxy-stage storlet runtime.
type Proxy struct {
	name   string
	ring   *ring.Ring
	nodes  *NodeSet
	engine *storlet.Engine
	reg    *Registry

	// quorum is the minimum replica writes for a successful PUT;
	// 0 means majority of the ring's replica count.
	quorum  int
	metrics *metrics.Registry

	// cache, when set, serves repeated identical pushdowns from memory and
	// collapses concurrent identical ones into a single filter execution.
	// It is shared across a cluster's proxies (the keys are content-hash
	// based, so sharing is always safe).
	cache *resultcache.Cache

	repairMu    sync.Mutex
	repairs     []RepairRecord
	asyncRepair func(RepairRecord)

	statMu sync.Mutex
	stats  ProxyStats
}

// NewProxy creates a proxy over the given ring, live node set and shared
// metadata registry. The NodeSet is shared with the cluster: membership
// changes made there are visible to this proxy's routing immediately.
func NewProxy(name string, rg *ring.Ring, nodes *NodeSet, engine *storlet.Engine, reg *Registry) *Proxy {
	return &Proxy{name: name, ring: rg, nodes: nodes, engine: engine, reg: reg}
}

// Name returns the proxy's name.
func (p *Proxy) Name() string { return p.name }

// SetMetrics attaches a counter registry; recoveries (failovers, resumes,
// quorum degradations, repairs) are counted there. nil disables counting.
func (p *Proxy) SetMetrics(r *metrics.Registry) { p.metrics = r }

// SetWriteQuorum overrides the PUT write quorum; q <= 0 restores the
// default (majority of the ring's replicas).
func (p *Proxy) SetWriteQuorum(q int) { p.quorum = q }

// SetResultCache attaches a pushdown result cache; nil disables caching.
func (p *Proxy) SetResultCache(c *resultcache.Cache) { p.cache = c }

// count bumps a named recovery counter; safe with no registry attached.
func (p *Proxy) count(name string) { p.metrics.Counter(name).Inc() }

// writeQuorum resolves the effective quorum for n replica targets.
func (p *Proxy) writeQuorum(n int) int {
	q := p.quorum
	if q <= 0 {
		q = n/2 + 1
	}
	if q > n {
		q = n
	}
	return q
}

// Stats returns a copy of the proxy's counters.
func (p *Proxy) Stats() ProxyStats {
	p.statMu.Lock()
	defer p.statMu.Unlock()
	return p.stats
}

// ResetStats zeroes the proxy counters.
func (p *Proxy) ResetStats() {
	p.statMu.Lock()
	defer p.statMu.Unlock()
	p.stats = ProxyStats{}
}

// CreateContainer implements Client.
func (p *Proxy) CreateContainer(_ context.Context, account, container string, policy *ContainerPolicy) error {
	if err := validateName(account); err != nil {
		return err
	}
	if err := validateName(container); err != nil {
		return err
	}
	p.reg.mu.Lock()
	defer p.reg.mu.Unlock()
	acc, ok := p.reg.accounts[account]
	if !ok {
		acc = &accountState{containers: make(map[string]*containerState)}
		p.reg.accounts[account] = acc
	}
	if _, dup := acc.containers[container]; dup {
		return ErrContainerExists
	}
	cs := &containerState{objects: make(map[string]ObjectInfo)}
	if policy != nil {
		cs.policy = *policy
	}
	acc.containers[container] = cs
	return nil
}

func validateName(s string) error {
	if s == "" || strings.ContainsAny(s, "/ \t\n") {
		return fmt.Errorf("objectstore: invalid name %q", s)
	}
	return nil
}

func (p *Proxy) container(account, container string) (*containerState, error) {
	p.reg.mu.RLock()
	defer p.reg.mu.RUnlock()
	acc, ok := p.reg.accounts[account]
	if !ok {
		return nil, ErrContainerNotFound
	}
	cs, ok := acc.containers[container]
	if !ok {
		return nil, ErrContainerNotFound
	}
	return cs, nil
}

func (p *Proxy) containerPolicy(account, container string) (ContainerPolicy, error) {
	cs, err := p.container(account, container)
	if err != nil {
		return ContainerPolicy{}, err
	}
	p.reg.mu.RLock()
	defer p.reg.mu.RUnlock()
	return cs.policy, nil
}

// PutObject implements Client: it runs the container's PUT pipeline (the
// upload-path ETL), then replicates the resulting object to every ring
// replica.
func (p *Proxy) PutObject(ctx context.Context, account, container, object string, r io.Reader, meta map[string]string) (ObjectInfo, error) {
	cs, err := p.container(account, container)
	if err != nil {
		return ObjectInfo{}, err
	}
	policy, err := p.containerPolicy(account, container)
	if err != nil {
		return ObjectInfo{}, err
	}
	if err := validateName(object); err != nil {
		return ObjectInfo{}, err
	}
	stream := r
	if len(policy.PutPipeline) > 0 {
		sctx := &storlet.Context{Ctx: ctx, RangeStart: 0, RangeEnd: int64(1) << 62, ObjectSize: -1}
		rc, err := p.engine.RunChain(sctx, policy.PutPipeline, r)
		if err != nil {
			return ObjectInfo{}, fmt.Errorf("put pipeline: %w", err)
		}
		defer rc.Close()
		stream = rc
	}
	// Buffer once so the object can be replicated to every node.
	var buf bytes.Buffer
	n, err := io.Copy(&buf, stream)
	if err != nil {
		return ObjectInfo{}, fmt.Errorf("objectstore: put %s: %w", object, err)
	}
	p.statMu.Lock()
	p.stats.PutBytes += n
	p.statMu.Unlock()

	info := ObjectInfo{Account: account, Container: container, Name: object, Meta: cloneMeta(meta)}
	nodes, err := p.replicaNodes(info.Path())
	if err != nil {
		return ObjectInfo{}, err
	}
	var stored ObjectInfo
	ok := 0
	var causes []error
	var missing []string
	for _, node := range nodes {
		si, err := node.Put(ctx, info, bytes.NewReader(buf.Bytes()))
		if err != nil {
			causes = append(causes, fmt.Errorf("%s: %w", node.Name(), err))
			missing = append(missing, node.Name())
			continue
		}
		stored = si
		ok++
	}
	// Write-quorum policy: the PUT succeeds when a majority of replicas
	// (by default 2 of 3) hold the object; the durability gap is recorded
	// for asynchronous repair. Below quorum the PUT fails with the typed
	// per-node causes.
	if quorum := p.writeQuorum(len(nodes)); ok < quorum {
		p.count("proxy.put.quorum_failed")
		return ObjectInfo{}, &ReplicationError{
			Path: info.Path(), Want: quorum, Got: ok, Replicas: len(nodes), Causes: causes,
		}
	}
	if ok < len(nodes) {
		p.count("proxy.put.underreplicated")
		p.recordRepair(RepairRecord{Path: info.Path(), Missing: missing, Causes: causes})
	}
	p.reg.mu.Lock()
	cs.objects[object] = stored
	p.reg.mu.Unlock()
	// Invalidate strictly AFTER the registry quorum commit point above. A
	// GET that raced past an earlier invalidation re-keys off the committed
	// registry ETag here, so it either sees the old committed version
	// (correct: the PUT had not committed) or the new one — never a mix.
	// Invalidating at first-replica ack instead would let a concurrent GET
	// re-fill from a not-yet-written replica and pin the old body under a
	// key that survives the commit.
	p.cache.InvalidatePath(info.Path())
	return stored, nil
}

func cloneMeta(m map[string]string) map[string]string {
	if m == nil {
		return nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// replicaNodes maps the serving epoch's node names to live Node handles —
// the WRITE placement. Writes always target the new epoch (background
// migration then only ever copies toward where writes already land), so an
// unresolvable name here is a wiring bug, not a transient.
func (p *Proxy) replicaNodes(path string) ([]*Node, error) {
	names, err := p.ring.NodesFor(path)
	if err != nil {
		return nil, err
	}
	out := make([]*Node, 0, len(names))
	for _, n := range names {
		node, ok := p.nodes.Get(n)
		if !ok {
			return nil, fmt.Errorf("objectstore: ring references unknown node %q", n)
		}
		out = append(out, node)
	}
	return out, nil
}

// readNodes resolves the READ placement: the serving epoch's nodes first,
// then old-epoch extras while a migration window is open, so a GET during
// a partition move finds the object wherever it currently lives. Names
// that no longer resolve (an ejected node still referenced by the old
// epoch) are skipped — the dead node cannot serve bytes anyway and the
// failover walk should not waste an attempt on it.
func (p *Proxy) readNodes(path string) ([]*Node, error) {
	names, err := p.ring.NodesForRead(path)
	if err != nil {
		return nil, err
	}
	out := make([]*Node, 0, len(names))
	for _, n := range names {
		if node, ok := p.nodes.Get(n); ok {
			out = append(out, node)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("objectstore: no resolvable replica node for %s: %w", path, ErrNotFound)
	}
	return out, nil
}

// GetObject implements Client. Object-stage tasks run at the object server
// holding the replica; proxy-stage tasks run here, on the way through.
// Cacheable pushdown chains are served through the result cache (hit,
// singleflight collapse, or leader fill); everything else — and every cache
// refusal — takes the uncached path.
func (p *Proxy) GetObject(ctx context.Context, account, container, object string, opts GetOptions) (io.ReadCloser, ObjectInfo, error) {
	policy, err := p.containerPolicy(account, container)
	if err != nil {
		return nil, ObjectInfo{}, err
	}
	if len(opts.Pushdown) > 0 && policy.DisablePushdown {
		return nil, ObjectInfo{}, fmt.Errorf("%w: container %s/%s", ErrPushdownDisabled, account, container)
	}
	for _, t := range opts.Pushdown {
		if err := t.Validate(); err != nil {
			return nil, ObjectInfo{}, err
		}
	}
	if rc, info, served, err := p.cachedGet(ctx, account, container, object, opts); served {
		return rc, info, err
	}
	return p.getUncached(ctx, account, container, object, opts)
}

// cachedGet tries to serve a validated GET through the result cache. The
// bool reports whether the request was handled here (including a leader
// whose fill failed before its first byte — that error keeps its typed
// shape for the 503 path). A false return means "serve uncached": the
// chain is uncacheable, the object is unknown to the registry, or the
// cache refused (overflowed or poisoned flight → bypass, never a 5xx).
func (p *Proxy) cachedGet(ctx context.Context, account, container, object string, opts GetOptions) (io.ReadCloser, ObjectInfo, bool, error) {
	if p.cache == nil || len(opts.Pushdown) == 0 || !p.cache.Cacheable(opts.Pushdown) {
		return nil, ObjectInfo{}, false, nil
	}
	// Key off the registry-committed version. A PUT that has not reached
	// its quorum commit point is invisible here, which together with the
	// post-commit invalidation ordering makes a stale fill impossible to
	// store (the fill guard below catches replicas racing ahead).
	info, err := p.HeadObject(ctx, account, container, object)
	if err != nil {
		return nil, ObjectInfo{}, false, nil
	}
	end := opts.RangeEnd
	if end <= 0 {
		end = 0
	}
	key := resultcache.Key{
		ETag:  info.ETag,
		Chain: pushdown.ChainHash(opts.Pushdown),
		Start: opts.RangeStart,
		End:   end,
	}
	path := "/" + account + "/" + container + "/" + object
	fill := func(fctx context.Context) (io.ReadCloser, resultcache.FillInfo, error) {
		rc, finfo, ferr := p.getUncached(fctx, account, container, object, opts)
		if ferr != nil {
			return nil, resultcache.FillInfo{}, ferr
		}
		return rc, resultcache.FillInfo{ETag: finfo.ETag}, nil
	}
	rc, status, err := p.cache.GetOrStart(ctx, key, path, fill)
	if err != nil {
		return nil, ObjectInfo{}, true, err
	}
	switch status {
	case resultcache.StatusBypass:
		return nil, ObjectInfo{}, false, nil
	case resultcache.StatusMiss:
		// The fill already runs through getUncached, whose counters account
		// this request and its bytes once.
		return rc, info, true, nil
	default: // hit, collapsed
		p.statMu.Lock()
		p.stats.Requests++
		p.statMu.Unlock()
		return &cacheCounted{rc: rc, p: p}, info, true, nil
	}
}

// getUncached is the uncached GET path: replica fetch with failover,
// object-stage pushdown at the node, proxy-stage pushdown here.
func (p *Proxy) getUncached(ctx context.Context, account, container, object string, opts GetOptions) (io.ReadCloser, ObjectInfo, error) {
	objectStage, proxyStage := pushdown.SplitByStage(opts.Pushdown)

	path := "/" + account + "/" + container + "/" + object
	nodes, err := p.readNodes(path)
	if err != nil {
		return nil, ObjectInfo{}, err
	}
	// Reads are version-pinned to the registry-committed ETag: a replica
	// that missed the latest PUT (down at write time, or an old-epoch copy
	// not yet migrated) is skipped, not served. If NO replica carries the
	// committed version (a write still settling across replicas), the walk
	// falls back unpinned — availability wins over freshness, matching the
	// store's quorum semantics.
	wantETag := ""
	if committed, ok := p.reg.InfoByPath(path); ok {
		wantETag = committed.ETag
	}
	rc, info, idx, err := p.fetchReplica(ctx, nodes, path, opts.RangeStart, opts.RangeEnd, objectStage, wantETag)
	if err != nil && wantETag != "" && errors.Is(err, errStaleReplica) {
		rc, info, idx, err = p.fetchReplica(ctx, nodes, path, opts.RangeStart, opts.RangeEnd, objectStage, "")
	}
	if err != nil {
		return nil, ObjectInfo{}, err
	}
	// Plain streams additionally survive mid-stream replica failure: the
	// expected byte count is known, so truncation is detected and the read
	// resumes on the next replica from the break. Filtered streams skip
	// this (see replicaStream) — for them only pre-first-byte failover and
	// whole-request retry are safe.
	if len(objectStage) == 0 {
		end := opts.RangeEnd
		if end <= 0 || end > info.Size {
			end = info.Size
		}
		if opts.RangeStart < end {
			rc = &replicaStream{
				ctx: ctx, p: p, nodes: nodes, idx: idx,
				path: path, etag: info.ETag, rc: rc, off: opts.RangeStart, end: end,
			}
		}
	}
	p.statMu.Lock()
	p.stats.Requests++
	p.statMu.Unlock()
	counted := &proxyCounted{rc: rc, p: p, toClient: len(proxyStage) == 0}
	if len(proxyStage) == 0 {
		return counted, info, nil
	}
	// Proxy-stage filters see the (possibly already filtered) stream, not
	// raw object bytes. Their range covers the whole derived stream unless
	// no object-stage filter ran, in which case the original byte range
	// still describes the stream.
	sctx := &storlet.Context{Ctx: ctx, RangeStart: 0, RangeEnd: int64(1) << 62, ObjectSize: info.Size}
	if len(objectStage) == 0 {
		end := opts.RangeEnd
		if end <= 0 || end > info.Size {
			end = info.Size
		}
		sctx.RangeStart, sctx.RangeEnd = opts.RangeStart, end
	}
	out, err := p.engine.RunChain(sctx, proxyStage, counted)
	if err != nil {
		counted.Close()
		return nil, ObjectInfo{}, err
	}
	return &proxyOutCounted{rc: out, p: p, inner: counted}, info, nil
}

// fetchReplica opens the object on the first replica that can deliver its
// first byte, trying the remaining ring replicas on any failure — including
// streams that open successfully and die before producing data (peekFirst).
// When wantETag is non-empty, replicas holding any other version are
// skipped (a quorum PUT may have missed a replica; a migration may not
// have reached one yet). It returns the stream, the object metadata, and
// the index of the serving replica so mid-stream failover can continue
// down the ring.
func (p *Proxy) fetchReplica(ctx context.Context, nodes []*Node, path string, start, end int64, tasks []*pushdown.Task, wantETag string) (io.ReadCloser, ObjectInfo, int, error) {
	var lastErr error = ErrNotFound
	for i, node := range nodes {
		if err := ctx.Err(); err != nil {
			return nil, ObjectInfo{}, 0, err
		}
		rc, info, err := node.GetVersion(ctx, path, start, end, tasks, wantETag)
		if errors.Is(err, errStaleReplica) {
			p.count("proxy.get.stale_skips")
			lastErr = err
			continue
		}
		if err != nil {
			// A pushdown refusal comes from the SHARED storlet engine, not
			// this replica's disk — another replica would refuse identically.
			// Abort the ring walk so the refusal surfaces once (typed, for
			// the 503 path) instead of as N spurious failovers.
			if IsPushdownUnavailable(err) || IsFilterFailure(err) {
				return nil, ObjectInfo{}, 0, err
			}
			lastErr = err
			continue
		}
		pk, perr := peekFirst(rc)
		if perr != nil {
			rc.Close()
			if IsPushdownUnavailable(perr) || IsFilterFailure(perr) {
				return nil, ObjectInfo{}, 0, perr
			}
			lastErr = fmt.Errorf("objectstore: replica %s failed before first byte: %w", node.Name(), perr)
			continue
		}
		if i > 0 {
			p.count("proxy.get.failovers")
		}
		return pk, info, i, nil
	}
	return nil, ObjectInfo{}, 0, lastErr
}

// HeadObject implements Client.
func (p *Proxy) HeadObject(_ context.Context, account, container, object string) (ObjectInfo, error) {
	cs, err := p.container(account, container)
	if err != nil {
		return ObjectInfo{}, err
	}
	p.reg.mu.RLock()
	defer p.reg.mu.RUnlock()
	info, ok := cs.objects[object]
	if !ok {
		return ObjectInfo{}, ErrNotFound
	}
	return info, nil
}

// DeleteObject implements Client.
func (p *Proxy) DeleteObject(ctx context.Context, account, container, object string) error {
	cs, err := p.container(account, container)
	if err != nil {
		return err
	}
	// Deletes cover the READ placement: during a migration window the only
	// copy may still sit on the old epoch's nodes, and a delete that missed
	// them would resurrect the object when reads fall through to old
	// placements.
	path := "/" + account + "/" + container + "/" + object
	nodes, err := p.readNodes(path)
	if err != nil {
		return err
	}
	var lastErr error
	for _, n := range nodes {
		if err := n.Delete(ctx, path); err != nil {
			lastErr = err
		}
	}
	p.reg.mu.Lock()
	delete(cs.objects, object)
	p.reg.mu.Unlock()
	// Deletion cannot serve stale hits (a future GET finds no registry ETag
	// to key on), so this is memory reclamation, ordered after the registry
	// delete for the same reason as the PUT-path invalidation.
	p.cache.InvalidatePath(path)
	return lastErr
}

// ListObjects implements Client using the proxy-tier container index (Swift
// keeps container listings on the metadata tier, not on object servers).
func (p *Proxy) ListObjects(_ context.Context, account, container, prefix string) ([]ObjectInfo, error) {
	cs, err := p.container(account, container)
	if err != nil {
		return nil, err
	}
	p.reg.mu.RLock()
	defer p.reg.mu.RUnlock()
	var out []ObjectInfo
	for name, info := range cs.objects {
		if strings.HasPrefix(name, prefix) {
			out = append(out, info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ListContainers implements Client.
func (p *Proxy) ListContainers(_ context.Context, account string) ([]string, error) {
	p.reg.mu.RLock()
	defer p.reg.mu.RUnlock()
	acc, ok := p.reg.accounts[account]
	if !ok {
		return nil, ErrContainerNotFound
	}
	out := make([]string, 0, len(acc.containers))
	for name := range acc.containers {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// DeleteContainer implements Client.
func (p *Proxy) DeleteContainer(_ context.Context, account, container string) error {
	p.reg.mu.Lock()
	defer p.reg.mu.Unlock()
	acc, ok := p.reg.accounts[account]
	if !ok {
		return ErrContainerNotFound
	}
	cs, ok := acc.containers[container]
	if !ok {
		return ErrContainerNotFound
	}
	if len(cs.objects) > 0 {
		return fmt.Errorf("%w: %d objects remain", ErrContainerNotEmpty, len(cs.objects))
	}
	delete(acc.containers, container)
	return nil
}

// proxyCounted accounts bytes arriving from object nodes; absent proxy-stage
// filtering the same bytes continue to the client. The counter is atomic
// because in the proxy-stage path a filter goroutine reads this stream while
// the client goroutine closes it.
type proxyCounted struct {
	rc       io.ReadCloser
	p        *Proxy
	n        atomic.Int64
	closed   atomic.Bool
	toClient bool // whether these bytes also count as client traffic
}

func (c *proxyCounted) Read(b []byte) (int, error) {
	n, err := c.rc.Read(b)
	c.n.Add(int64(n))
	return n, err
}

func (c *proxyCounted) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	n := c.n.Load()
	c.p.statMu.Lock()
	c.p.stats.BytesFromNodes += n
	if c.toClient {
		c.p.stats.BytesToClient += n
	}
	c.p.statMu.Unlock()
	return c.rc.Close()
}

// proxyOutCounted accounts post-proxy-filter bytes to the client. Closing it
// tears down the filter chain and then flushes the inner node-side counter
// (the storlet engine never closes its input stream).
type proxyOutCounted struct {
	rc     io.ReadCloser
	p      *Proxy
	inner  *proxyCounted
	n      int64
	closed bool
}

func (c *proxyOutCounted) Read(b []byte) (int, error) {
	n, err := c.rc.Read(b)
	c.n += int64(n)
	return n, err
}

func (c *proxyOutCounted) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	err := c.rc.Close() // stops the chain; the filter's next read/write fails
	c.inner.Close()     // flush node->proxy accounting
	c.p.statMu.Lock()
	c.p.stats.BytesToClient += c.n
	c.p.statMu.Unlock()
	return err
}

// cacheCounted accounts cache-served bytes (hit/collapsed) to the client.
// Miss-status streams are not wrapped: their bytes are accounted once by the
// fill's own counted readers. Forwards CacheStatus so the handler can emit
// the X-Scoop-Cache header.
type cacheCounted struct {
	rc     io.ReadCloser
	p      *Proxy
	n      int64
	closed bool
}

func (c *cacheCounted) Read(b []byte) (int, error) {
	n, err := c.rc.Read(b)
	c.n += int64(n)
	return n, err
}

func (c *cacheCounted) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.p.statMu.Lock()
	c.p.stats.BytesToClient += c.n
	c.p.statMu.Unlock()
	return c.rc.Close()
}

// CacheStatus implements CacheStatuser by delegation.
func (c *cacheCounted) CacheStatus() string {
	if s, ok := c.rc.(CacheStatuser); ok {
		return s.CacheStatus()
	}
	return ""
}

// IsNotFound reports whether err means the object or container is missing.
func IsNotFound(err error) bool {
	return errors.Is(err, ErrNotFound) || errors.Is(err, ErrContainerNotFound)
}
