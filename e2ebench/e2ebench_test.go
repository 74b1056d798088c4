package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"

	"scoop/internal/core"
	"scoop/internal/sql/types"
)

// contract is the part of BENCHMARK.json the tests hold the output to.
type contract struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// tinyRun runs one workload at the tiny scale.
func tinyRun(t *testing.T, name string, seed int64, trace bool) *output {
	t.Helper()
	w, ok := workloadNamed(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	out, err := run(config{
		workload: w, seed: seed, seconds: 0.4, trace: trace, scale: tinyScale, workdir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.result.Correct || out.result.Failed != 0 || out.result.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", name, out.result.Correct, out.result.Attempted, out.result.Failed)
	}
	return out
}

func checkMetrics(t *testing.T, name string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", name, m.Name)
			continue
		}
		if g.Unit != m.Unit || math.IsNaN(g.Value) || math.IsInf(g.Value, 0) {
			t.Errorf("%s: metric %s = %v %q, want a number in %q", name, m.Name, g.Value, g.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, contract names %d", name, len(got), len(want))
	}
}

// TestSmoke runs every workload once untraced and once traced at the tiny
// scale: every named metric is printed with its unit, nothing fails, and
// the traced run covers every layer.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("contract names %d workloads, benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, cw := range c.Workloads {
		t.Run(cw.Name, func(t *testing.T) {
			out := tinyRun(t, cw.Name, 1, false)
			checkMetrics(t, cw.Name, out.result.Metrics, c.EndToEnd)
			ingest := out.result.Metrics["ingest_bytes_per_query"].Value
			switch cw.Name {
			case "scan-baseline":
				// Baseline GETs run to the end of the object and the reader
				// buffers ahead, so a query ingests at least the dataset.
				if ingest < float64(out.stamp.DatasetBytes) {
					t.Errorf("baseline ingests %.0f B/query, dataset is %d B", ingest, out.stamp.DatasetBytes)
				}
			case "scan-pushdown":
				if ingest >= float64(out.stamp.DatasetBytes) {
					t.Errorf("pushdown ingests %.0f B/query, dataset is %d B", ingest, out.stamp.DatasetBytes)
				}
			}

			traced := tinyRun(t, cw.Name, 1, true)
			m := traced.result.Metrics
			checkMetrics(t, cw.Name+" traced", m, c.PerLayer)
			if f := m["failed_frac"].Value; f != 0 {
				t.Errorf("failed_frac = %v", f)
			}
			sum := m["trace.unaccounted_ms"].Value
			for _, l := range tracedLayers {
				sum += m["trace.self_ms."+l].Value
			}
			if wall := m["trace.query_wall_ms"].Value; wall <= 0 || math.Abs(sum-wall) > 1e-6*wall {
				t.Errorf("layer self times + unaccounted = %v ms, traced query wall = %v ms", sum, wall)
			}
			checkTraceFile(t, cw.Name, traced.tracePath)
		})
	}
}

// checkTraceFile reads the traced run's output: spans for every span layer
// and, for the counter-only layers, per-query counter movement.
func checkTraceFile(t *testing.T, name, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Spans    []span          `json:"spans"`
		Counters []counterRecord `json:"counters"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	layers := map[string]bool{}
	for _, s := range tr.Spans {
		if s.End < s.Start {
			t.Fatalf("span %+v never ended", s)
		}
		layers[s.layer()] = true
	}
	for _, l := range []string{"bench", "sql", "datasource", "compute", "objectstore", "exec"} {
		if !layers[l] {
			t.Errorf("%s: no %s spans", name, l)
		}
	}
	var moved snapshot
	moved.Reg = map[string]int64{}
	for _, r := range tr.Counters {
		moved.Conn.Requests += r.Delta.Conn.Requests
		moved.Node.BytesRead += r.Delta.Node.BytesRead
		moved.Proxy.BytesFromNodes += r.Delta.Proxy.BytesFromNodes
		moved.CSV.Invocations += r.Delta.CSV.Invocations
		moved.Agg.Invocations += r.Delta.Agg.Invocations
		for k, v := range r.Delta.Reg {
			moved.Reg[k] += v
		}
	}
	if moved.Conn.Requests == 0 || moved.Node.BytesRead == 0 || moved.Proxy.BytesFromNodes == 0 {
		t.Errorf("%s: counter records show no connector, node or proxy movement: %+v", name, moved)
	}
	switch name {
	case "scan-pushdown":
		if moved.CSV.Invocations == 0 || moved.Agg.Invocations == 0 {
			t.Errorf("%s: no storlet invocations recorded: %+v", name, moved)
		}
	case "scan-baseline":
		if moved.CSV.Invocations != 0 {
			t.Errorf("%s: baseline ran the CSV storlet %d times", name, moved.CSV.Invocations)
		}
	case "dashboard-http":
		if moved.Reg["resultcache.hits"]+moved.Reg["resultcache.misses"] == 0 {
			t.Errorf("%s: no result cache lookups recorded: %v", name, moved.Reg)
		}
	}
}

// TestCountDeterminism: on the scan workloads the exact counts are the same
// in two runs with the same seed.
func TestCountDeterminism(t *testing.T) {
	counts := []string{"connector.gets_per_query", "storlet.csv.bytes_in_per_query", "storlet.csv.bytes_out_per_query", "proxy.bytes_from_nodes_per_query"}
	for _, name := range []string{"scan-pushdown", "scan-baseline"} {
		a, b := tinyRun(t, name, 7, false), tinyRun(t, name, 7, false)
		if x, y := a.result.Metrics["ingest_bytes_per_query"], b.result.Metrics["ingest_bytes_per_query"]; x != y {
			t.Errorf("%s: ingest_bytes_per_query %v then %v", name, x.Value, y.Value)
		}
		a, b = tinyRun(t, name, 7, true), tinyRun(t, name, 7, true)
		for _, c := range counts {
			if x, y := a.result.Metrics[c], b.result.Metrics[c]; x != y {
				t.Errorf("%s: %s %v then %v", name, c, x.Value, y.Value)
			}
		}
	}
}

// TestCorruptedReferenceCounts: a reference answer that disagrees with the
// system is counted as a failed query, not passed over.
func TestCorruptedReferenceCounts(t *testing.T) {
	w, _ := workloadNamed("scan-pushdown")
	ds, err := generate(tinyScale, 3)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := setup(w, ds, tinyScale, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	qs := scanQueries()
	ref, err := buildOracle(sys, qs)
	if err != nil {
		t.Fatal(err)
	}
	run := func(q int) ([]types.Row, core.Metrics, error) {
		res, err := runOn(context.Background(), sys.scoop, qs[q], w.mode)
		if err != nil {
			return nil, core.Metrics{}, err
		}
		return res.Rows, res.Metrics, nil
	}
	ops := scanOps(len(qs), 1, rand.New(rand.NewSource(1)))
	if p := closedLoop(ref, ops, len(qs), 0, run, nil); p.failed != 0 {
		t.Fatalf("intact reference: %d failures, first %v", p.failed, p.firstErr)
	}
	agg := len(qs) - 1 // AggByMeter, checked against its SQL twin
	cell := &ref[agg][0][1]
	cell.F *= 1 + 1e-6
	p := closedLoop(ref, ops, len(qs), 0, run, nil)
	if p.failed != 1 || p.attempted != len(qs) || p.queries() != len(qs)-1 {
		t.Fatalf("corrupted reference: attempted=%d failed=%d answered=%d, want %d/1/%d", p.attempted, p.failed, p.queries(), len(qs), len(qs)-1)
	}
}

func TestZipfSequenceMix(t *testing.T) {
	a := zipfSequence(640, 21, rand.New(rand.NewSource(1)))
	b := zipfSequence(640, 21, rand.New(rand.NewSource(2)))
	ca, cb := make([]int, 21), make([]int, 21)
	same := true
	for i := range a {
		ca[a[i]]++
		cb[b[i]]++
		same = same && a[i] == b[i]
	}
	if same {
		t.Error("seeds 1 and 2 gave the same order")
	}
	for k := range ca {
		if ca[k] != cb[k] {
			t.Fatalf("query %d: %d vs %d requests; the mix must not depend on the seed", k, ca[k], cb[k])
		}
	}
	if ca[0] <= ca[1] || ca[1] <= ca[20] || ca[20] == 0 {
		t.Errorf("not a Zipf mix: %v", ca)
	}
}

// TestTracedPathMatchesQuery holds the traced run to the program's own
// path: every scan query run through tracedPath does the same work as
// through core.Query (or AggregateQuery) — the same GETs, bytes, splits and
// rows, and the same storlet traffic. If core.Query changes how it reads,
// this fails until tracedPath follows.
func TestTracedPathMatchesQuery(t *testing.T) {
	for _, name := range []string{"scan-pushdown", "scan-baseline"} {
		t.Run(name, func(t *testing.T) {
			w, _ := workloadNamed(name)
			ds, err := generate(tinyScale, 5)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := setup(w, ds, tinyScale, 0, "")
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			tp, err := newTracedPath(newTracer(), sys.client, tinyScale, w.mode)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range scanQueries() {
				before := sys.take(sys.scoop)
				res, err := runOn(context.Background(), sys.scoop, q, w.mode)
				if err != nil {
					t.Fatal(err)
				}
				want, wantD := res.Metrics, sys.take(sys.scoop).since(before)
				before = sys.take(tp.scoop)
				_, got, err := tp.run(q)
				if err != nil {
					t.Fatal(err)
				}
				gotD := sys.take(tp.scoop).since(before)
				if got.Requests != want.Requests || got.BytesIngested != want.BytesIngested ||
					got.Splits != want.Splits || got.RowsScanned != want.RowsScanned {
					t.Errorf("%s: traced requests/bytes/splits/rows %d/%d/%d/%d, core %d/%d/%d/%d", q.Name,
						got.Requests, got.BytesIngested, got.Splits, got.RowsScanned,
						want.Requests, want.BytesIngested, want.Splits, want.RowsScanned)
				}
				if gotD.CSV.BytesIn != wantD.CSV.BytesIn || gotD.CSV.BytesOut != wantD.CSV.BytesOut ||
					gotD.Agg.BytesIn != wantD.Agg.BytesIn || gotD.Agg.BytesOut != wantD.Agg.BytesOut {
					t.Errorf("%s: traced storlet bytes in/out csv %d/%d agg %d/%d, core csv %d/%d agg %d/%d", q.Name,
						gotD.CSV.BytesIn, gotD.CSV.BytesOut, gotD.Agg.BytesIn, gotD.Agg.BytesOut,
						wantD.CSV.BytesIn, wantD.CSV.BytesOut, wantD.Agg.BytesIn, wantD.Agg.BytesOut)
				}
			}
		})
	}
}
