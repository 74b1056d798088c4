package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd computes the metrics a user of the system sees, from the timed
// phase p, the counter movement d over it and the live heap after it.
// Bytes ingested come from the connector's counter over the phase: on a
// closed loop that is the sum of Result.Metrics.BytesIngested, but that
// per-query figure is a delta of the same shared counter, so on the open
// loop it also counts whatever a concurrent query moved meanwhile.
// Scan throughput is over the phase's active time, not its wall: on the
// open loop the wall is fixed by the offered rate, and only the busy time
// moves with the program.
func endToEnd(p *phase, d snapshot, setupS float64, ds *dataset, heap uint64) map[string]metric {
	n := float64(max(p.queries(), 1))
	lat := millis(p.lat)
	return map[string]metric{
		"setup_s":                {setupS, "s"},
		"query_p50_ms":           {quantile(lat, 0.50), "ms"},
		"query_p95_ms":           {quantile(lat, 0.95), "ms"},
		"scan_mb_s":              {float64(p.queries()) * float64(ds.Bytes) / 1e6 / p.active.Seconds(), "MB/s"},
		"ingest_bytes_per_query": {float64(d.Conn.BytesIngested) / n, "B"},
		"alloc_mb_per_query":     {float64(p.rt.allocBytes) / 1e6 / n, "MB"},
		"heap_inuse_mb":          {float64(heap) / 1e6, "MB"},
	}
}

// perLayer computes the per-layer metrics: counter-derived ones over the
// timed phase p (counter movement d, cached bytes held at its end),
// span-derived ones from the traced phase tph and its attribution a, and
// the tracing overhead against the untraced closed loop base.
func perLayer(p *phase, d snapshot, cached int64, base, tph *phase, a *attribution) map[string]metric {
	n := float64(max(p.queries(), 1))
	perQ := func(v int64) float64 { return float64(v) / n }
	reqs := float64(max(a.requests, 1))
	perReq := func(ns float64) float64 { return ns / 1e6 / reqs }
	perSpan := func(total time.Duration, name string) float64 {
		return float64(total) / 1e6 / float64(max(a.count[name], 1))
	}
	cache := d.Reg["resultcache.hits"] + d.Reg["resultcache.misses"] + d.Reg["resultcache.collapses"] + d.Reg["resultcache.bypasses"]
	m := map[string]metric{
		"failed_frac": {float64(p.failed) / float64(max(p.attempted, 1)), "ratio"},

		"sql.plan_us": {float64(a.dur["sql.parse"]+a.dur["sql.plan"]) / 1e3 / float64(max(a.count["sql.plan"], 1)), "us"},

		"compute.busy_ms":            {float64(p.busy) / 1e6 / n, "ms"},
		"compute.util":               {ratio(float64(p.busy), float64(p.computeWall)*float64(nproc)), "ratio"},
		"compute.attempts_per_query": {perQ(p.attempts), "count"},
		"compute.failures":           {float64(p.failures), "count"},

		"datasource.scan_self_ms":   {perReq(a.self["datasource"]), "ms"},
		"datasource.rows_per_query": {perQ(p.rows), "count"},

		"connector.gets_per_query": {perQ(d.Conn.Requests), "count"},
		"connector.fallbacks":      {float64(d.Conn.Fallbacks), "count"},

		"objectstore.get_ttfb_ms":          {perSpan(a.dur["objectstore.ttfb"], "objectstore.ttfb"), "ms"},
		"objectstore.get_body_ms":          {perSpan(a.getSelf, "objectstore.get"), "ms"},
		"objectstore.put_ms":               {mean(millis(p.putLat)), "ms"},
		"proxy.bytes_from_nodes_per_query": {perQ(d.Proxy.BytesFromNodes), "B"},
		"node.bytes_read_per_query":        {perQ(d.Node.BytesRead), "B"},
		"node.errors":                      {float64(d.Node.Errors), "count"},
		"proxy.get.failovers":              {float64(d.Reg["proxy.get.failovers"]), "count"},
		"client.retries":                   {float64(d.Reg["client.retries"]), "count"},

		"storlet.csv.ms_per_query":        {float64(d.CSV.WallTime) / 1e6 / n, "ms"},
		"storlet.csv.out_in_ratio":        {ratio(float64(d.CSV.BytesOut), float64(d.CSV.BytesIn)), "ratio"},
		"storlet.csv.bytes_in_per_query":  {perQ(d.CSV.BytesIn), "B"},
		"storlet.csv.bytes_out_per_query": {perQ(d.CSV.BytesOut), "B"},
		"storlet.csv.errors":              {float64(d.CSV.Errors), "count"},
		"storlet.csv.rejections":          {float64(d.CSV.Rejections), "count"},
		"storlet.agg.ms_per_query":        {float64(d.Agg.WallTime) / 1e6 / n, "ms"},

		"resultcache.hit_ratio":     {ratio(float64(d.Reg["resultcache.hits"]), float64(cache)), "ratio"},
		"resultcache.collapses":     {float64(d.Reg["resultcache.collapses"]), "count"},
		"resultcache.evictions":     {float64(d.Reg["resultcache.evictions"]), "count"},
		"resultcache.invalidations": {float64(d.Reg["resultcache.invalidations"]), "count"},
		"resultcache.bytes":         {float64(cached), "B"},

		"exec.execute_ms":        {perSpan(a.dur["exec.execute"], "exec.execute"), "ms"},
		"exec.rows_in_per_query": {float64(tph.rows) / float64(max(tph.queries(), 1)), "count"},

		"runtime.gc_cycles_per_query":   {float64(p.rt.gcCycles) / n, "count"},
		"runtime.gc_pause_ms_per_query": {float64(p.rt.pauseNs) / 1e6 / n, "ms"},
		"runtime.mallocs_per_query":     {float64(p.rt.allocObjects) / n, "count"},

		"loadgen.lag_ms_max":   {float64(p.lagMax) / 1e6, "ms"},
		"loadgen.inflight_max": {float64(p.inflightMax), "count"},

		"trace.queries":        {float64(a.requests), "count"},
		"trace.query_wall_ms":  {perReq(a.wall), "ms"},
		"trace.unaccounted_ms": {perReq(a.self["bench"]), "ms"},
		"trace.overhead_ms":    {quantile(millis(tph.lat), 0.5) - quantile(millis(base.lat), 0.5), "ms"},
	}
	for _, l := range tracedLayers {
		m["trace.self_ms."+l] = metric{perReq(a.self[l]), "ms"}
	}
	return m
}

// tracedLayers are the layers the traced run's spans cover; the bench
// layer (the root span's own time) is reported as trace.unaccounted_ms.
var tracedLayers = []string{"sql", "datasource", "compute", "objectstore", "exec", "core"}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// stamp identifies the host and configuration a run's numbers belong to, so
// runs from different hosts or settings are never compared silently.
type stamp struct {
	Workload       string  `json:"workload"`
	Seed           int64   `json:"seed"`
	Seconds        float64 `json:"seconds"`
	Trace          bool    `json:"trace"`
	Nproc          int     `json:"nproc"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	GoVersion      string  `json:"go_version"`
	Commit         string  `json:"commit"`
	Dirty          string  `json:"dirty"`
	ComputeWorkers int     `json:"compute_workers"`
	CacheBytes     int64   `json:"cache_bytes"`
	RateOpsPerS    float64 `json:"rate_ops_per_s"`
	PutEvery       int     `json:"put_every"`
	DatasetBytes   int64   `json:"dataset_bytes"`
	DatasetRows    int64   `json:"dataset_rows"`
	Objects        int     `json:"objects"`
	// HeldBytes is the dataset copy the benchmark itself keeps live
	// through the timed phase (the dashboard's re-PUT source); it is part
	// of heap_inuse_mb.
	HeldBytes    int64 `json:"bench_held_bytes"`
	ChunkBytes   int64 `json:"chunk_bytes"`
	Setups       int   `json:"setups"`
	QuerySamples int   `json:"query_samples"`
	PutSamples   int   `json:"put_samples"`
}

func newStamp(cfg config, ds *dataset, cacheBytes int64, p *phase) stamp {
	st := stamp{
		Workload: cfg.workload.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Nproc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Dirty: "unknown",
		ComputeWorkers: computeConfig().Workers, CacheBytes: cacheBytes,
		DatasetBytes: ds.Bytes, DatasetRows: ds.Rows, Objects: len(ds.Names), ChunkBytes: cfg.scale.ChunkSize,
		Setups: setups, QuerySamples: p.queries(), PutSamples: len(p.putLat),
	}
	if cfg.workload.http {
		st.RateOpsPerS, st.PutEvery = cfg.scale.Rate, putEvery
	}
	for _, o := range ds.Objects {
		st.HeldBytes += int64(len(o))
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				st.Commit = s.Value
			case "vcs.modified":
				st.Dirty = s.Value
			}
		}
	}
	return st
}
