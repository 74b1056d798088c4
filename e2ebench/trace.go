package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"scoop/internal/compute"
	"scoop/internal/connector"
	"scoop/internal/core"
	"scoop/internal/datasource"
	"scoop/internal/meter"
	"scoop/internal/objectstore"
	"scoop/internal/sql/exec"
	"scoop/internal/sql/parser"
	"scoop/internal/sql/plan"
	"scoop/internal/sql/types"
)

// span is one timed call into a layer. The layer is the name's prefix
// before the first dot. Times are offsets from the tracer's epoch.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a request's root
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, req, parent int) int {
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: at, End: -1})
	return id
}

// end closes span id now.
func (t *tracer) end(id int) { t.endAt(id, t.now()) }

func (t *tracer) endAt(id int, at time.Duration) {
	t.mu.Lock()
	t.spans[id].End = at
	t.mu.Unlock()
}

// add records a span that has already finished.
func (t *tracer) add(name string, req, parent int, start, end time.Duration) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// spanRef rides on the context from the benchmark's calls down to the
// traced store client, naming the span a GET belongs under.
type spanRef struct{ req, id int }

type spanKey struct{}

func withSpan(ctx context.Context, req, id int) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{req, id})
}

// tracedClient wraps the store client handed to the connector. Each GET is
// an objectstore.get span from call to body close, with an objectstore.ttfb
// child up to the first byte; the stretches between body reads, when the
// caller is decoding rather than waiting on the store, are children named
// after the caller's layer (<layer>.consume). The GET's self time is then
// the time spent blocked on body bytes.
type tracedClient struct {
	objectstore.Client
	t *tracer
}

func (c *tracedClient) GetObject(ctx context.Context, account, cont, object string, opts objectstore.GetOptions) (io.ReadCloser, objectstore.ObjectInfo, error) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	if !ok {
		return c.Client.GetObject(ctx, account, cont, object, opts)
	}
	get := c.t.begin("objectstore.get", ref.req, ref.id)
	ttfb := c.t.begin("objectstore.ttfb", ref.req, get)
	rc, info, err := c.Client.GetObject(ctx, account, cont, object, opts)
	if err != nil {
		c.t.end(ttfb)
		c.t.end(get)
		return nil, info, err
	}
	c.t.mu.Lock()
	consume := c.t.spans[ref.id].layer() + ".consume"
	c.t.mu.Unlock()
	return &tracedBody{rc: rc, t: c.t, req: ref.req, get: get, ttfb: ttfb, consume: consume, gap: -1}, info, nil
}

func (c *tracedClient) ListObjects(ctx context.Context, account, cont, prefix string) ([]objectstore.ObjectInfo, error) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	if !ok {
		return c.Client.ListObjects(ctx, account, cont, prefix)
	}
	id := c.t.begin("objectstore.list", ref.req, ref.id)
	defer c.t.end(id)
	return c.Client.ListObjects(ctx, account, cont, prefix)
}

type tracedBody struct {
	rc      io.ReadCloser
	t       *tracer
	req     int
	get     int
	ttfb    int // -1 once the first byte arrived
	consume string
	gap     time.Duration // start of the current consume stretch; -1 while none
}

func (b *tracedBody) Read(p []byte) (int, error) {
	if b.gap >= 0 {
		b.t.add(b.consume, b.req, b.get, b.gap, b.t.now())
	}
	n, err := b.rc.Read(p)
	now := b.t.now()
	if b.ttfb >= 0 && (n > 0 || err != nil) {
		b.t.endAt(b.ttfb, now)
		b.ttfb = -1
	}
	b.gap = now
	return n, err
}

func (b *tracedBody) Close() error {
	if b.gap >= 0 {
		b.t.add(b.consume, b.req, b.get, b.gap, b.t.now())
		b.gap = -1
	}
	err := b.rc.Close()
	now := b.t.now()
	if b.ttfb >= 0 {
		b.t.endAt(b.ttfb, now)
		b.ttfb = -1
	}
	b.t.endAt(b.get, now)
	return err
}

// tracedPath drives queries through the same public calls core.Query makes,
// in the same order, with a span around each: parser.Parse, plan.Analyze,
// datasource.NewCSV and Splits, compute.Driver.Run (each task running
// ScanPrunedFiltered and Next) and exec.Execute. AggByMeter in pushdown mode
// is one core.aggregate span around Scoop.AggregateQuery with its GETs
// beneath.
type tracedPath struct {
	t      *tracer
	scoop  *core.Scoop // over the traced client; owns the traced connector
	driver *compute.Driver
	schema *types.Schema
	mode   core.Mode
	req    int
}

func newTracedPath(t *tracer, inner objectstore.Client, sc scale, mode core.Mode) (*tracedPath, error) {
	s, err := core.New(core.Config{Client: &tracedClient{Client: inner, t: t}, ChunkSize: sc.ChunkSize, Compute: computeConfig()})
	if err != nil {
		return nil, err
	}
	if err := registerTable(s); err != nil {
		return nil, err
	}
	driver, err := compute.NewDriver(computeConfig())
	if err != nil {
		return nil, err
	}
	schema, err := types.ParseSchema(meter.SchemaDecl)
	if err != nil {
		return nil, err
	}
	return &tracedPath{t: t, scoop: s, driver: driver, schema: schema, mode: mode}, nil
}

// run executes q as request number tp.req (and advances it). Metrics carry
// what core.Query would report, so the caller's accounting is unchanged.
func (tp *tracedPath) run(q query) ([]types.Row, core.Metrics, error) {
	req := tp.req
	tp.req++
	t := tp.t
	root := t.begin("bench.query", req, -1)
	defer t.end(root)
	start := time.Now()
	if q.Agg && tp.mode == core.ModePushdown {
		id := t.begin("core.aggregate", req, root)
		res, err := runOn(withSpan(context.Background(), req, id), tp.scoop, q, tp.mode)
		t.end(id)
		if err != nil {
			return nil, core.Metrics{}, err
		}
		return res.Rows, res.Metrics, nil
	}

	id := t.begin("sql.parse", req, root)
	sel, err := parser.Parse(q.SQL)
	t.end(id)
	if err != nil {
		return nil, core.Metrics{}, err
	}
	id = t.begin("sql.plan", req, root)
	p, err := plan.Analyze(sel, tp.schema, plan.Options{})
	t.end(id)
	if err != nil {
		return nil, core.Metrics{}, err
	}

	id = t.begin("datasource.splits", req, root)
	conn := tp.scoop.Connector()
	rel, err := datasource.NewCSV(conn, container, "", meter.SchemaDecl, datasource.CSVOptions{Pushdown: tp.mode == core.ModePushdown})
	var splits []connector.Split
	if err == nil {
		splits, err = rel.Splits(withSpan(context.Background(), req, id))
	}
	t.end(id)
	if err != nil {
		return nil, core.Metrics{}, err
	}

	before := conn.Stats()
	id = t.begin("compute.run", req, root)
	tasks := make([]compute.Task, len(splits))
	for i, split := range splits {
		split := split
		tasks[i] = func(ctx context.Context) (any, error) {
			sid := t.begin("datasource.scan", req, id)
			defer t.end(sid)
			it, err := rel.ScanPrunedFiltered(withSpan(ctx, req, sid), split, p.Required, p.Pushed)
			if err != nil {
				return nil, err
			}
			defer it.Close()
			var rows []types.Row
			for {
				r, err := it.Next()
				if err == io.EOF {
					return rows, nil
				}
				if err != nil {
					return nil, err
				}
				rows = append(rows, r)
			}
		}
	}
	results, cstats, err := tp.driver.Run(context.Background(), tasks)
	t.end(id)
	if err != nil {
		return nil, core.Metrics{}, err
	}
	var all []types.Row
	for _, v := range results {
		all = append(all, v.([]types.Row)...)
	}

	id = t.begin("exec.execute", req, root)
	res, err := exec.Execute(p, exec.NewSliceIterator(all))
	t.end(id)
	if err != nil {
		return nil, core.Metrics{}, err
	}
	after := conn.Stats()
	return res.Rows, core.Metrics{
		Mode:          tp.mode,
		WallTime:      time.Since(start),
		BytesIngested: after.BytesIngested - before.BytesIngested,
		Requests:      after.Requests - before.Requests,
		Splits:        len(splits),
		RowsScanned:   int64(len(all)),
		RowsReturned:  len(res.Rows),
		Compute:       cstats,
	}, nil
}

// attribution splits each request's wall time over layers. At every instant
// the innermost open spans of the request share it equally, so concurrent
// tasks split the time between them and the shares sum to the root span's
// duration exactly; time covered by the root alone is the bench layer's,
// reported as unaccounted. Without concurrency a layer's share is the usual
// self time: span duration minus what its children cover.
type attribution struct {
	requests int
	// wall and self are in nanoseconds; float so equal shares of an
	// interval add back up to it exactly.
	wall float64
	self map[string]float64
	// per-span-name totals and counts, for the named per-layer metrics
	dur   map[string]time.Duration
	count map[string]int
	// getSelf is the summed self time of objectstore.get spans: duration
	// minus ttfb and consume children.
	getSelf time.Duration
}

func attribute(spans []span) *attribution {
	a := &attribution{self: map[string]float64{}, dur: map[string]time.Duration{}, count: map[string]int{}}
	byReq := map[int][]span{}
	for _, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], s)
		a.dur[s.Name] += s.End - s.Start
		a.count[s.Name]++
	}
	childCover := map[int]time.Duration{}
	for _, s := range spans {
		if s.Parent >= 0 && spans[s.Parent].Name == "objectstore.get" {
			childCover[s.Parent] += s.End - s.Start
		}
	}
	for id, c := range childCover {
		a.getSelf += spans[id].End - spans[id].Start - c
	}
	for _, rs := range byReq {
		a.requests++
		a.sweep(rs)
	}
	return a
}

// sweep attributes one request's spans.
func (a *attribution) sweep(rs []span) {
	type event struct {
		at    time.Duration
		open  bool
		index int
	}
	local := make(map[int]int, len(rs)) // span id -> index in rs
	events := make([]event, 0, 2*len(rs))
	for i, s := range rs {
		local[s.ID] = i
		events = append(events, event{s.Start, true, i}, event{s.End, false, i})
		if s.Parent < 0 {
			a.wall += float64(s.End - s.Start)
		}
	}
	// At one instant closes come before opens, opens parent first (ids
	// grow from parent to child) and closes child first, so a tie never
	// inverts the nesting.
	sort.Slice(events, func(i, j int) bool {
		ei, ej := events[i], events[j]
		if ei.at != ej.at {
			return ei.at < ej.at
		}
		if ei.open != ej.open {
			return !ei.open
		}
		if ei.open {
			return rs[ei.index].ID < rs[ej.index].ID
		}
		return rs[ei.index].ID > rs[ej.index].ID
	})
	openChildren := make([]int, len(rs))
	open := make([]bool, len(rs))
	leaves := map[int]bool{}
	parentOf := func(i int) int {
		if p, ok := local[rs[i].Parent]; ok && open[p] {
			return p
		}
		return -1
	}
	var last time.Duration
	for _, e := range events {
		if n := len(leaves); n > 0 && e.at > last {
			share := float64(e.at-last) / float64(n)
			for i := range leaves {
				a.self[rs[i].layer()] += share
			}
		}
		last = e.at
		p := parentOf(e.index)
		if e.open {
			open[e.index] = true
			leaves[e.index] = true
			if p >= 0 {
				openChildren[p]++
				delete(leaves, p)
			}
			continue
		}
		open[e.index] = false
		delete(leaves, e.index)
		if p >= 0 && openChildren[p] > 0 {
			openChildren[p]--
			if openChildren[p] == 0 {
				leaves[p] = true
			}
		}
	}
}

// writeTrace stores the spans and per-query counter records as JSON.
func writeTrace(path string, spans []span, counters []counterRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans    []span          `json:"spans"`
		Counters []counterRecord `json:"counters"`
	}{spans, counters}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
