// Command e2ebench is the repository's end-to-end benchmark: it stands the
// Scoop system up through its public API, runs one named workload on a
// dataset generated from the seed, checks every answer against a reference,
// and prints every metric by name with its unit. With -trace 1 it adds a
// separate traced run and prints per-layer metrics instead.
//
// Usage (from the repository root, which run.sh builds it in):
//
//	bash e2ebench/run.sh --workload scan-pushdown --seed 1 --seconds 36 --trace 0
//
// The last line of standard output is the result object; the line before
// it is the host and configuration stamp. See README.md for the workloads,
// the metrics and the layer map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"scoop/internal/core"
	"scoop/internal/sql/types"
)

// workload is one named traffic mix.
type workload struct {
	name string
	mode core.Mode
	// http selects the scoopd-shaped deployment: a disk-backed cluster with
	// the result cache behind the HTTP handler, queried over HTTPClient by
	// an open loop of Zipf-mixed dashboard queries and re-PUTs.
	http bool
}

var workloads = []workload{
	{name: "scan-pushdown", mode: core.ModePushdown},
	{name: "scan-baseline", mode: core.ModeBaseline},
	{name: "dashboard-http", mode: core.ModePushdown, http: true},
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// dashboardWarmupOps fill the cache before timing starts.
	dashboardWarmupOps = 64
	// setups is how many times a run stands the system up; setup_s is
	// their median, and the last one serves the run.
	setups = 5
)

// config is one run's settings.
type config struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	scale    scale
	workdir  string
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: scan-pushdown, scan-baseline or dashboard-http")
		seed    = flag.Int64("seed", 1, "seed for data generation, query order and the dashboard mix")
		seconds = flag.Float64("seconds", 36, "measured seconds")
		trace   = flag.Int("trace", 0, "1 adds the traced run and prints per-layer metrics")
		workdir = flag.String("workdir", filepath.Join(".bench_build", "e2ebench"), "directory for node data and trace output")
	)
	flag.Parse()
	w, ok := workloadNamed(*name)
	if !ok || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: need --workload scan-pushdown|scan-baseline|dashboard-http, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	out, err := run(config{
		workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		scale: mediumScale, workdir: *workdir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"stamp": out.stamp}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(out.result); err != nil {
		os.Exit(1)
	}
}

// output is what one run prints.
type output struct {
	stamp  stamp
	result result
	// tracePath is where the traced run's spans went (trace runs only).
	tracePath string
}

// run executes one benchmark run.
func run(cfg config) (*output, error) {
	w := cfg.workload
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	ds, err := generate(cfg.scale, cfg.seed)
	if err != nil {
		return nil, err
	}
	var cacheBytes int64 // the scan workloads run with the cache off
	if w.http {
		cacheBytes = cfg.scale.CacheBytes
	}

	// Set-up, several times; the last deployment serves the run.
	var sys *system
	setupTimes := make([]float64, setups)
	for i := range setupTimes {
		if sys != nil {
			sys.Close()
		}
		runtime.GC() // each set-up starts from the same heap, not the last one's garbage
		start := time.Now()
		sys, err = setup(w, ds, cfg.scale, cacheBytes, dataDirFor(cfg.workdir, i))
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes[i] = time.Since(start).Seconds()
	}
	defer sys.Close()
	if !w.http {
		// Only the dashboard re-PUTs; elsewhere the benchmark's copy of the
		// dataset would count in heap_inuse_mb as if the program held it.
		ds.Objects = nil
	}

	qs := scanQueries()
	if w.http {
		qs = dashboardQueries()
	}
	if err := sys.addReference(cfg.scale); err != nil {
		return nil, err
	}
	ref, err := buildOracle(sys, qs)
	if err != nil {
		return nil, err
	}

	timed := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		timed /= 2
	}
	untraced := func(q int) ([]types.Row, core.Metrics, error) {
		res, err := runOn(context.Background(), sys.scoop, qs[q], w.mode)
		if err != nil {
			return nil, core.Metrics{}, err
		}
		return res.Rows, res.Metrics, nil
	}
	put := func(i int) error { return sys.put(ds, i) }

	rng := rand.New(rand.NewSource(cfg.seed))
	var all tally
	var ops []op
	unit := len(qs) // closed loops stop at whole passes
	if w.http {
		all.add(openLoop(ref, dashboardOps(dashboardWarmupOps, len(qs), len(ds.Names), 0, rng), untraced, put))
		ops = dashboardOps(int(cfg.scale.Rate*timed.Seconds()), len(qs), len(ds.Names), cfg.scale.Rate, rng)
		unit = 1
	} else {
		all.add(closedLoop(ref, scanOps(len(qs), 1, rng), unit, 0, untraced, put))
		ops = scanOps(len(qs), maxPasses, rng)
	}

	before := sys.take(sys.scoop)
	var p *phase
	if w.http {
		p = openLoop(ref, ops, untraced, put)
	} else {
		p = closedLoop(ref, ops, unit, timed, untraced, put)
	}
	delta := sys.take(sys.scoop).since(before)
	all.add(p)

	out := &output{stamp: newStamp(cfg, ds, cacheBytes, p)}
	if !cfg.trace {
		out.result.Metrics = endToEnd(p, delta, quantile(setupTimes, 0.5), ds, heapInuseAfterGC())
	} else {
		// The untraced reference for the tracing overhead is a closed loop
		// with one client, like the traced run; the scan workloads' timed
		// phase already is one.
		base, replay := p, timed
		if w.http {
			replay = timed / 2
			base = closedLoop(ref, ops, unit, replay, untraced, put)
			all.add(base)
		}
		t := newTracer()
		tp, err := newTracedPath(t, sys.client, cfg.scale, w.mode)
		if err != nil {
			return nil, err
		}
		var records []counterRecord
		traced := func(q int) ([]types.Row, core.Metrics, error) {
			before := sys.take(tp.scoop)
			req := tp.req
			rows, m, err := tp.run(qs[q])
			records = append(records, counterRecord{Req: req, Query: qs[q].Name, Delta: sys.take(tp.scoop).since(before)})
			return rows, m, err
		}
		tph := closedLoop(ref, ops, unit, replay, traced, put)
		all.add(tph)
		out.tracePath = filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-seed%d.json", w.name, cfg.seed))
		if err := writeTrace(out.tracePath, t.spans, records); err != nil {
			return nil, err
		}
		var cached int64
		if c := sys.cluster.ResultCache(); c != nil {
			cached = c.Snapshot().Bytes
		}
		out.result.Metrics = perLayer(p, delta, cached, base, tph, attribute(t.spans))
	}
	out.result.Correct = all.failed == 0
	out.result.Attempted = all.attempted
	out.result.Failed = all.failed
	if all.firstErr != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: first failure:", all.firstErr)
	}
	return out, nil
}

// maxPasses bounds the scan workloads' pre-built request stream; a closed
// loop wraps around it if a run outlasts it.
const maxPasses = 4096

// tally sums the operations of every phase of a run, warm-up included:
// each one's answer is checked.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) add(p *phase) {
	t.attempted += p.attempted
	t.failed += p.failed
	if t.firstErr == nil {
		t.firstErr = p.firstErr
	}
}
