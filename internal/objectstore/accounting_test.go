package objectstore_test

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"scoop/internal/connector"
	"scoop/internal/objectstore"
	"scoop/internal/pushdown"
	"scoop/internal/storlet"
	"scoop/internal/storlet/csvfilter"
)

// gate holds every object read at its first Read until open is closed,
// reporting the first blocked read on entered. It lets a test keep a cache
// fill in flight while a second request joins it.
type gate struct {
	armed   bool
	entered chan struct{}
	open    chan struct{}
	once    sync.Once
}

// gatedStore routes one node's object reads through the shared gate.
type gatedStore struct {
	objectstore.Store
	g *gate
}

func (s *gatedStore) Get(ctx context.Context, path string, start, end int64) (io.ReadCloser, objectstore.ObjectInfo, error) {
	rc, info, err := s.Store.Get(ctx, path, start, end)
	if err != nil || !s.g.armed {
		return rc, info, err
	}
	return &gatedReader{ReadCloser: rc, g: s.g}, info, nil
}

type gatedReader struct {
	io.ReadCloser
	g *gate
}

func (r *gatedReader) Read(p []byte) (int, error) {
	r.g.once.Do(func() { close(r.g.entered) })
	<-r.g.open
	return r.ReadCloser.Read(p)
}

// accountingData is a CSV object and the answer of accountingTask over it.
func accountingData() (data, want string) {
	var d, w strings.Builder
	cities := []string{"Rotterdam", "Paris", "Kyiv"}
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&d, "V%d,2015-01-01 00:10:00,%d.5,%s,XX\n", i, i, cities[i%3])
		if i%3 == 1 {
			fmt.Fprintf(&w, "V%d\n", i)
		}
	}
	return d.String(), w.String()
}

func accountingTask(stage string) []*pushdown.Task {
	return []*pushdown.Task{{
		Filter:     csvfilter.FilterName,
		Schema:     "vid string, date string, index double, city string, state string",
		Columns:    []string{"vid"},
		Predicates: []pushdown.Predicate{{Column: "city", Op: pushdown.OpEq, Value: "Paris"}},
		Stage:      stage,
	}}
}

// TestCrossTierByteAccounting pins, after every stream closes, the exact
// byte and request counts each tier reports — object nodes, proxies, the
// load balancer and the connector — for every path a GET can take.
func TestCrossTierByteAccounting(t *testing.T) {
	data, want := accountingData()
	n, f := int64(len(data)), int64(len(want))
	const prefix = 4096

	type expect struct {
		node  objectstore.NodeStats // FilterTime is checked for > 0 when filtered
		proxy objectstore.ProxyStats
		lb    int64
		conn  connector.Stats
		// metric names a cluster counter that must read 1 (which cache
		// path served the requests).
		metric string
	}
	cases := []struct {
		name  string
		cache bool
		gate  bool
		// run issues the case's reads through conn and returns the bodies.
		run  func(t *testing.T, c *objectstore.Cluster, conn *connector.Connector, g *gate, split connector.Split) []string
		body string
		want expect
	}{
		{
			name: "plain GET",
			run: func(t *testing.T, _ *objectstore.Cluster, conn *connector.Connector, _ *gate, split connector.Split) []string {
				return []string{openRead(t, conn, split, nil)}
			},
			body: data,
			want: expect{
				node:  objectstore.NodeStats{BytesRead: n, BytesSent: n, Requests: 1},
				proxy: objectstore.ProxyStats{Requests: 1, BytesFromNodes: n, BytesToClient: n},
				lb:    n,
				conn:  connector.Stats{BytesIngested: n, Requests: 1},
			},
		},
		{
			name: "object-stage filter",
			run: func(t *testing.T, _ *objectstore.Cluster, conn *connector.Connector, _ *gate, split connector.Split) []string {
				return []string{openRead(t, conn, split, accountingTask(pushdown.StageObject))}
			},
			body: want,
			want: expect{
				node:  objectstore.NodeStats{BytesRead: n, BytesSent: f, Requests: 1, FilteredRequests: 1},
				proxy: objectstore.ProxyStats{Requests: 1, BytesFromNodes: f, BytesToClient: f},
				lb:    f,
				conn:  connector.Stats{BytesIngested: f, Requests: 1},
			},
		},
		{
			name: "proxy-stage filter",
			run: func(t *testing.T, _ *objectstore.Cluster, conn *connector.Connector, _ *gate, split connector.Split) []string {
				return []string{openRead(t, conn, split, accountingTask(pushdown.StageProxy))}
			},
			body: want,
			want: expect{
				node:  objectstore.NodeStats{BytesRead: n, BytesSent: n, Requests: 1},
				proxy: objectstore.ProxyStats{Requests: 1, BytesFromNodes: n, BytesToClient: f},
				lb:    f,
				conn:  connector.Stats{BytesIngested: f, Requests: 1},
			},
		},
		{
			name:  "cache miss",
			cache: true,
			run: func(t *testing.T, _ *objectstore.Cluster, conn *connector.Connector, _ *gate, split connector.Split) []string {
				return []string{openRead(t, conn, split, accountingTask(pushdown.StageObject))}
			},
			body: want,
			want: expect{
				node:   objectstore.NodeStats{BytesRead: n, BytesSent: f, Requests: 1, FilteredRequests: 1},
				proxy:  objectstore.ProxyStats{Requests: 1, BytesFromNodes: f, BytesToClient: f},
				lb:     f,
				conn:   connector.Stats{BytesIngested: f, Requests: 1},
				metric: "resultcache.misses",
			},
		},
		{
			name:  "cache hit",
			cache: true,
			run: func(t *testing.T, c *objectstore.Cluster, conn *connector.Connector, _ *gate, split connector.Split) []string {
				tasks := accountingTask(pushdown.StageObject)
				first := openRead(t, conn, split, tasks)
				// The fill settles into an entry just after its last byte.
				deadline := time.Now().Add(5 * time.Second)
				for c.ResultCache().Snapshot().Entries == 0 {
					if time.Now().After(deadline) {
						t.Fatal("fill never settled into the cache")
					}
					time.Sleep(time.Millisecond)
				}
				return []string{first, openRead(t, conn, split, tasks)}
			},
			body: want,
			want: expect{
				node:   objectstore.NodeStats{BytesRead: n, BytesSent: f, Requests: 1, FilteredRequests: 1},
				proxy:  objectstore.ProxyStats{Requests: 2, BytesFromNodes: f, BytesToClient: 2 * f},
				lb:     2 * f,
				conn:   connector.Stats{BytesIngested: 2 * f, Requests: 2},
				metric: "resultcache.hits",
			},
		},
		{
			name:  "collapsed follower",
			cache: true,
			gate:  true,
			run: func(t *testing.T, _ *objectstore.Cluster, conn *connector.Connector, g *gate, split connector.Split) []string {
				tasks := accountingTask(pushdown.StageObject)
				type opened struct {
					rc  io.ReadCloser
					err error
				}
				leader := make(chan opened, 1)
				go func() {
					rc, err := conn.Open(context.Background(), split, tasks)
					leader <- opened{rc, err}
				}()
				<-g.entered // the leader's fill is registered and blocked
				follower, err := conn.Open(context.Background(), split, tasks)
				if err != nil {
					t.Fatal(err)
				}
				close(g.open)
				l := <-leader
				if l.err != nil {
					t.Fatal(l.err)
				}
				return []string{drain(t, l.rc), drain(t, follower)}
			},
			body: want,
			want: expect{
				node:   objectstore.NodeStats{BytesRead: n, BytesSent: f, Requests: 1, FilteredRequests: 1},
				proxy:  objectstore.ProxyStats{Requests: 2, BytesFromNodes: f, BytesToClient: 2 * f},
				lb:     2 * f,
				conn:   connector.Stats{BytesIngested: 2 * f, Requests: 2},
				metric: "resultcache.collapses",
			},
		},
		{
			name: "prefix read then Close",
			run: func(t *testing.T, _ *objectstore.Cluster, conn *connector.Connector, _ *gate, split connector.Split) []string {
				rc, err := conn.Open(context.Background(), split, nil)
				if err != nil {
					t.Fatal(err)
				}
				buf := make([]byte, prefix)
				if _, err := io.ReadFull(rc, buf); err != nil {
					t.Fatal(err)
				}
				if err := rc.Close(); err != nil {
					t.Fatal(err)
				}
				return []string{string(buf)}
			},
			body: data[:prefix],
			want: expect{
				node:  objectstore.NodeStats{BytesRead: prefix, BytesSent: prefix, Requests: 1},
				proxy: objectstore.ProxyStats{Requests: 1, BytesFromNodes: prefix, BytesToClient: prefix},
				lb:    prefix,
				conn:  connector.Stats{BytesIngested: prefix, Requests: 1},
			},
		},
		{
			name: "connector fallback",
			run: func(t *testing.T, c *objectstore.Cluster, conn *connector.Connector, _ *gate, split connector.Split) []string {
				local := storlet.NewEngine(storlet.Limits{})
				if err := local.Register(csvfilter.New()); err != nil {
					t.Fatal(err)
				}
				conn.EnableFallback(local, nil)
				ctx := context.Background()
				policy := &objectstore.ContainerPolicy{DisablePushdown: true}
				if err := c.Client().CreateContainer(ctx, "gp", "nopush", policy); err != nil {
					t.Fatal(err)
				}
				if _, err := c.Client().PutObject(ctx, "gp", "nopush", "m.csv", strings.NewReader(data), nil); err != nil {
					t.Fatal(err)
				}
				c.ResetStats()
				split.Container = "nopush"
				split.Object = "m.csv"
				return []string{openRead(t, conn, split, accountingTask(pushdown.StageObject))}
			},
			body: want,
			want: expect{
				node:  objectstore.NodeStats{BytesRead: n, BytesSent: n, Requests: 1},
				proxy: objectstore.ProxyStats{Requests: 1, BytesFromNodes: n, BytesToClient: n},
				lb:    n,
				conn:  connector.Stats{BytesIngested: n, Requests: 1, Fallbacks: 1, FallbackBytes: n},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := &gate{entered: make(chan struct{}), open: make(chan struct{})}
			cfg := objectstore.DefaultClusterConfig()
			if tc.cache {
				cfg.ResultCacheBytes = 1 << 20
			}
			if tc.gate {
				cfg.StoreWrap = func(_ string, s objectstore.Store) objectstore.Store {
					return &gatedStore{Store: s, g: g}
				}
			}
			c, err := objectstore.NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Engine().Register(csvfilter.New()); err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			cl := c.Client()
			if err := cl.CreateContainer(ctx, "gp", "meters", nil); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.PutObject(ctx, "gp", "meters", "m.csv", strings.NewReader(data), nil); err != nil {
				t.Fatal(err)
			}
			g.armed = tc.gate
			c.ResetStats()
			conn := connector.New(cl, "gp", 0)
			split := connector.Split{Account: "gp", Container: "meters", Object: "m.csv", Start: 0, End: n, ObjectSize: n}

			for i, body := range tc.run(t, c, conn, g, split) {
				if body != tc.body {
					t.Errorf("body %d = %d bytes, want %d", i, len(body), len(tc.body))
				}
			}
			node := c.NodeStatsTotal()
			if filtered := node.FilteredRequests > 0; filtered != (node.FilterTime > 0) {
				t.Errorf("node FilterTime = %v with %d filtered requests", node.FilterTime, node.FilteredRequests)
			}
			node.FilterTime = 0
			if node != tc.want.node {
				t.Errorf("node stats = %+v, want %+v", node, tc.want.node)
			}
			if got := c.ProxyStatsTotal(); got != tc.want.proxy {
				t.Errorf("proxy stats = %+v, want %+v", got, tc.want.proxy)
			}
			if got := c.LBBytes(); got != tc.want.lb {
				t.Errorf("LB bytes = %d, want %d", got, tc.want.lb)
			}
			if got := conn.Stats(); got != tc.want.conn {
				t.Errorf("connector stats = %+v, want %+v", got, tc.want.conn)
			}
			if tc.want.metric != "" {
				if got := c.Metrics().Counter(tc.want.metric).Load(); got != 1 {
					t.Errorf("%s = %d, want 1", tc.want.metric, got)
				}
			}
		})
	}
}

func openRead(t *testing.T, conn *connector.Connector, split connector.Split, tasks []*pushdown.Task) string {
	t.Helper()
	rc, err := conn.Open(context.Background(), split, tasks)
	if err != nil {
		t.Fatal(err)
	}
	return drain(t, rc)
}

func drain(t *testing.T, rc io.ReadCloser) string {
	t.Helper()
	b, err := io.ReadAll(rc)
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
