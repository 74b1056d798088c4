package main

import (
	"runtime"
	rtmetrics "runtime/metrics"

	"scoop/internal/connector"
	"scoop/internal/core"
	"scoop/internal/objectstore"
	"scoop/internal/storlet"
	"scoop/internal/storlet/aggfilter"
	"scoop/internal/storlet/csvfilter"
)

// snapshot reads the program's own counters, tier by tier. The benchmark
// adds no instrumentation inside the program; per-layer numbers for the
// storlet, node, proxy, connector and result cache come from differences of
// two snapshots.
type snapshot struct {
	Conn  connector.Stats
	Node  objectstore.NodeStats
	Proxy objectstore.ProxyStats
	CSV   storlet.Stats
	Agg   storlet.Stats
	// Reg merges the cluster's, the Scoop instance's and the HTTP client's
	// metric registries (their counter names are disjoint).
	Reg map[string]int64
}

// take snapshots the counters a query on s (the system under test, or the
// traced path's own instance) moves.
func (sys *system) take(s *core.Scoop) snapshot {
	c := sys.cluster
	snap := snapshot{
		Conn:  s.Connector().Stats(),
		Node:  c.NodeStatsTotal(),
		Proxy: c.ProxyStatsTotal(),
		CSV:   c.Engine().StatsFor(csvfilter.FilterName),
		Agg:   c.Engine().StatsFor(aggfilter.FilterName),
		Reg:   c.Metrics().Snapshot(),
	}
	if r := s.MetricsRegistry(); r != c.Metrics() {
		for k, v := range r.Snapshot() {
			snap.Reg[k] += v
		}
	}
	for k, v := range sys.clientReg.Snapshot() {
		snap.Reg[k] += v
	}
	return snap
}

// since returns the counter movement from earlier to s.
func (s snapshot) since(earlier snapshot) snapshot {
	d := snapshot{
		Conn: connector.Stats{
			BytesIngested: s.Conn.BytesIngested - earlier.Conn.BytesIngested,
			Requests:      s.Conn.Requests - earlier.Conn.Requests,
			Fallbacks:     s.Conn.Fallbacks - earlier.Conn.Fallbacks,
			FallbackBytes: s.Conn.FallbackBytes - earlier.Conn.FallbackBytes,
		},
		Node: objectstore.NodeStats{
			BytesRead:        s.Node.BytesRead - earlier.Node.BytesRead,
			BytesSent:        s.Node.BytesSent - earlier.Node.BytesSent,
			FilterTime:       s.Node.FilterTime - earlier.Node.FilterTime,
			Requests:         s.Node.Requests - earlier.Node.Requests,
			FilteredRequests: s.Node.FilteredRequests - earlier.Node.FilteredRequests,
			Errors:           s.Node.Errors - earlier.Node.Errors,
		},
		Proxy: objectstore.ProxyStats{
			Requests:       s.Proxy.Requests - earlier.Proxy.Requests,
			BytesToClient:  s.Proxy.BytesToClient - earlier.Proxy.BytesToClient,
			BytesFromNodes: s.Proxy.BytesFromNodes - earlier.Proxy.BytesFromNodes,
			PutBytes:       s.Proxy.PutBytes - earlier.Proxy.PutBytes,
		},
		CSV: storletSince(s.CSV, earlier.CSV),
		Agg: storletSince(s.Agg, earlier.Agg),
		Reg: map[string]int64{},
	}
	for k, v := range s.Reg {
		if v != earlier.Reg[k] {
			d.Reg[k] = v - earlier.Reg[k]
		}
	}
	return d
}

func storletSince(s, e storlet.Stats) storlet.Stats {
	return storlet.Stats{
		Invocations:  s.Invocations - e.Invocations,
		Errors:       s.Errors - e.Errors,
		BytesIn:      s.BytesIn - e.BytesIn,
		BytesOut:     s.BytesOut - e.BytesOut,
		WallTime:     s.WallTime - e.WallTime,
		Rejections:   s.Rejections - e.Rejections,
		BreakerOpens: s.BreakerOpens - e.BreakerOpens,
	}
}

// counterRecord is one traced request's counter movement, written beside
// the spans for the counter-only layers (connector, storlet, node, proxy,
// result cache).
type counterRecord struct {
	Req   int      `json:"req"`
	Query string   `json:"query"`
	Delta snapshot `json:"delta"`
}

// runtimeStats are the Go runtime's process-wide allocation and GC totals.
type runtimeStats struct {
	allocBytes, allocObjects, gcCycles, pauseNs uint64
}

func readRuntime() runtimeStats {
	samples := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	rtmetrics.Read(samples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeStats{
		allocBytes:   samples[0].Value.Uint64(),
		allocObjects: samples[1].Value.Uint64(),
		gcCycles:     samples[2].Value.Uint64(),
		pauseNs:      ms.PauseTotalNs,
	}
}

func (s runtimeStats) since(e runtimeStats) runtimeStats {
	return runtimeStats{
		allocBytes:   s.allocBytes - e.allocBytes,
		allocObjects: s.allocObjects - e.allocObjects,
		gcCycles:     s.gcCycles - e.gcCycles,
		pauseNs:      s.pauseNs - e.pauseNs,
	}
}

// heapInuseAfterGC forces a collection and returns the in-use heap bytes:
// the live set, including whatever the program keeps in caches and pools.
func heapInuseAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}
