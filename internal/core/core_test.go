package core

import (
	"context"
	"io"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scoop/internal/adaptive"
	"scoop/internal/compute"
	"scoop/internal/datasource"
	"scoop/internal/meter"
	"scoop/internal/objectstore"
	"scoop/internal/pushdown"
	"scoop/internal/sql/exec"
	"scoop/internal/sql/parser"
	"scoop/internal/sql/plan"
	"scoop/internal/sql/types"
	"scoop/internal/storlet/aggfilter"
)

// newScoop builds an in-process instance with a small uploaded dataset and
// the meters table registered.
func newScoop(t *testing.T) (*Scoop, int64) {
	t.Helper()
	s, err := New(Config{ChunkSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := meter.DefaultConfig()
	cfg.Meters = 20
	cfg.Days = 3
	cfg.Interval = time.Hour
	size, err := s.UploadMeterDataset(context.Background(), "meters", cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterTable("largeMeter", "meters", "", meter.SchemaDecl, datasource.CSVOptions{}); err != nil {
		t.Fatal(err)
	}
	return s, size
}

func TestQueryBothModesAgree(t *testing.T) {
	s, _ := newScoop(t)
	queries := []string{
		"SELECT count(*) AS n FROM largeMeter",
		"SELECT vid, sum(index) AS total FROM largeMeter WHERE date LIKE '2015-01-01%' GROUP BY vid ORDER BY vid LIMIT 5",
		"SELECT city, count(*) AS n FROM largeMeter WHERE state LIKE 'U%' GROUP BY city ORDER BY city",
		"SELECT DISTINCT state FROM largeMeter ORDER BY state",
		"SELECT vid FROM largeMeter WHERE city LIKE 'Rotterdam' AND date LIKE '2015-01-01 00%' ORDER BY vid",
	}
	for _, q := range queries {
		push, err := s.Query(q, QueryOptions{Mode: ModePushdown})
		if err != nil {
			t.Fatalf("%s (pushdown): %v", q, err)
		}
		base, err := s.Query(q, QueryOptions{Mode: ModeBaseline})
		if err != nil {
			t.Fatalf("%s (baseline): %v", q, err)
		}
		if len(push.Rows) != len(base.Rows) {
			t.Fatalf("%s: pushdown %d rows, baseline %d rows", q, len(push.Rows), len(base.Rows))
		}
		for i := range push.Rows {
			for j := range push.Rows[i] {
				a, b := push.Rows[i][j], base.Rows[i][j]
				if a.IsNull() != b.IsNull() || (!a.IsNull() && a.Compare(b) != 0) {
					t.Fatalf("%s: row %d col %d: %v vs %v", q, i, j, a, b)
				}
			}
		}
	}
}

func TestPushdownReducesIngestion(t *testing.T) {
	s, size := newScoop(t)
	q := "SELECT vid FROM largeMeter WHERE state LIKE 'FRA' AND date LIKE '2015-01-01%'"
	push, err := s.Query(q, QueryOptions{Mode: ModePushdown})
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.Query(q, QueryOptions{Mode: ModeBaseline})
	if err != nil {
		t.Fatal(err)
	}
	// Baseline ingests the whole dataset, plus a few hundred bytes per
	// interior split boundary to finish straddling records.
	slack := int64(base.Metrics.Splits) * 1024
	if base.Metrics.BytesIngested < size || base.Metrics.BytesIngested > size+slack {
		t.Errorf("baseline ingested %d, dataset %d (+%d slack)", base.Metrics.BytesIngested, size, slack)
	}
	if push.Metrics.BytesIngested >= base.Metrics.BytesIngested/2 {
		t.Errorf("pushdown ingested %d vs baseline %d", push.Metrics.BytesIngested, base.Metrics.BytesIngested)
	}
	if sel := push.Metrics.Selectivity(size); sel < 0.5 {
		t.Errorf("selectivity = %v", sel)
	}
	if push.Metrics.Mode != ModePushdown || base.Metrics.Mode != ModeBaseline {
		t.Error("modes not recorded")
	}
	if push.Metrics.Splits < 2 {
		t.Errorf("splits = %d, want parallelism", push.Metrics.Splits)
	}
}

func TestGridPocketQueriesEndToEnd(t *testing.T) {
	s, _ := newScoop(t)
	// ShowGraphHCHP shape (Table I) on the small dataset.
	q := `SELECT SUBSTRING(date, 0, 10) as sDate, vid, min(sumHC) as minHC, max(sumHC) as maxHC,
		min(sumHP) as minHP, max(sumHP) as maxHP FROM largeMeter
		WHERE state LIKE 'FRA' AND date LIKE '2015-01-%'
		GROUP BY SUBSTRING(date, 0, 10), vid ORDER BY SUBSTRING(date, 0, 10), vid`
	res, err := s.Query(q, QueryOptions{Mode: ModePushdown})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	if res.Schema.Len() != 6 {
		t.Errorf("schema = %v", res.Schema)
	}
	// minHC <= maxHC in every row.
	for _, r := range res.Rows {
		if r[2].Compare(r[3]) > 0 {
			t.Errorf("minHC > maxHC in %v", r)
		}
	}
	// Rows are sorted by (sDate, vid).
	for i := 1; i < len(res.Rows); i++ {
		a, b := res.Rows[i-1], res.Rows[i]
		if a[0].Compare(b[0]) > 0 || (a[0].Compare(b[0]) == 0 && a[1].Compare(b[1]) > 0) {
			t.Errorf("rows out of order at %d: %v, %v", i, a, b)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	s, _ := newScoop(t)
	if _, err := s.Query("SELECT broken FROM", QueryOptions{}); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, err := s.Query("SELECT x FROM ghostTable", QueryOptions{}); err == nil {
		t.Error("unknown table not surfaced")
	}
	if _, err := s.Query("SELECT ghostCol FROM largeMeter", QueryOptions{}); err == nil {
		t.Error("unknown column not surfaced")
	}
}

func TestQueryCancellation(t *testing.T) {
	s, _ := newScoop(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Query("SELECT count(*) FROM largeMeter", QueryOptions{Context: ctx}); err == nil {
		t.Error("cancelled context should fail the query")
	}
}

// Aggregation folds on the compute workers, one partial per split: four
// workers over 16+ splits must give what Execute gives over the same rows
// on one goroutine. Meant for -race -count=10.
func TestParallelPartialAggregationMatchesSerial(t *testing.T) {
	s, err := New(Config{ChunkSize: 4 << 10, Compute: compute.Config{Workers: 4, Retries: 1}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := meter.DefaultConfig()
	cfg.Meters = 20
	cfg.Days = 3
	cfg.Interval = time.Hour
	if _, err := s.UploadMeterDataset(context.Background(), "meters", cfg, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterTable("largeMeter", "meters", "", meter.SchemaDecl, datasource.CSVOptions{}); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT vid, count(*) AS n, sum(index) AS s, avg(index) AS a, min(index) AS lo, max(date) AS hi, " +
		"first_value(date) AS d, count(DISTINCT city) AS c FROM largeMeter " +
		"WHERE city LIKE 'R%' OR state LIKE 'F%' GROUP BY vid HAVING count(*) > 1 ORDER BY vid"
	sel, err := parser.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := types.ParseSchema(meter.SchemaDecl)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := plan.Analyze(sel, schema, plan.Options{DisablePredicatePushdown: true, DisableProjectionPushdown: true})
	if err != nil {
		t.Fatal(err)
	}
	// The serial reference reads every split in order on this goroutine.
	rel, err := s.tables["largemeter"].newRelation(s.conn, false)
	if err != nil {
		t.Fatal(err)
	}
	splits, err := rel.Splits(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var all []types.Row
	for _, split := range splits {
		it, err := rel.ScanPrunedFiltered(context.Background(), split, serial.Required, nil)
		if err != nil {
			t.Fatal(err)
		}
		for {
			r, err := it.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, r)
		}
		it.Close()
	}
	want, err := exec.Execute(serial, exec.NewSliceIterator(all))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModePushdown, ModeBaseline} {
		got, err := s.Query(q, QueryOptions{Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got.Metrics.Splits < 16 {
			t.Fatalf("%v: %d splits, want at least 16", mode, got.Metrics.Splits)
		}
		if len(want.Rows) == 0 || len(got.Rows) != len(want.Rows) {
			t.Fatalf("%v: %d rows, serial %d", mode, len(got.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			for j, w := range want.Rows[i] {
				g := got.Rows[i][j]
				if g.T != w.T || g.S != w.S || g.I != w.I || math.Abs(g.F-w.F) > 1e-9*math.Abs(w.F) {
					t.Fatalf("%v: row %d col %d: %#v, serial %#v", mode, i, j, g, w)
				}
			}
		}
	}
}

func TestRegisterTableValidation(t *testing.T) {
	s, _ := newScoop(t)
	if err := s.RegisterTable("", "c", "", meter.SchemaDecl, datasource.CSVOptions{}); err == nil {
		t.Error("empty name accepted")
	}
	if err := s.RegisterTable("t2", "c", "", "bad schema", datasource.CSVOptions{}); err == nil {
		t.Error("bad schema accepted")
	}
	if err := s.RegisterTable("largemeter", "c", "", meter.SchemaDecl, datasource.CSVOptions{}); err == nil {
		t.Error("duplicate (case-insensitive) accepted")
	}
}

func TestExplain(t *testing.T) {
	s, _ := newScoop(t)
	out, err := s.Explain("SELECT vid FROM largeMeter WHERE state LIKE 'FRA'")
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Scan(largeMeter)", "pushed: state like"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Explain missing %q:\n%s", frag, out)
		}
	}
	if _, err := s.Explain("SELECT x FROM nope"); err == nil {
		t.Error("unknown table in explain")
	}
	if _, err := s.Explain("garbage"); err == nil {
		t.Error("parse error in explain")
	}
}

func TestUploadMeterDatasetSplitsOnRecordBoundaries(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := meter.DefaultConfig()
	cfg.Meters = 7
	cfg.Days = 1
	cfg.Interval = time.Hour
	size, err := s.UploadMeterDataset(context.Background(), "m", cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	list, err := s.Client().ListObjects(context.Background(), s.Account(), "m", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 4 {
		t.Fatalf("objects = %v", list)
	}
	var total int64
	for _, o := range list {
		total += o.Size
	}
	if total != size {
		t.Errorf("sizes: total %d, reported %d", total, size)
	}
	// Row count must be exact across the object boundaries.
	if err := s.RegisterTable("m", "m", "part-", meter.SchemaDecl, datasource.CSVOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query("SELECT count(*) AS n FROM m", QueryOptions{Mode: ModePushdown})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != cfg.Rows() {
		t.Errorf("count = %v, want %d", res.Rows[0][0], cfg.Rows())
	}
	// Re-upload into an existing container works (fresh container state is
	// not required), under a distinct object prefix.
	if _, err := s.UploadMeterDataset(context.Background(), "m", cfg, 1); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsSelectivityClamp(t *testing.T) {
	m := Metrics{BytesIngested: 200}
	if m.Selectivity(0) != 0 {
		t.Error("zero dataset")
	}
	if m.Selectivity(100) != 0 {
		t.Error("over-ingestion should clamp to 0")
	}
	m.BytesIngested = 25
	if got := m.Selectivity(100); got != 0.75 {
		t.Errorf("selectivity = %v", got)
	}
}

func TestModeString(t *testing.T) {
	if ModePushdown.String() != "pushdown" || ModeBaseline.String() != "baseline" {
		t.Error("mode strings")
	}
}

// JSON tables run the full SQL path in both modes.
func TestJSONTableSQL(t *testing.T) {
	s, err := New(Config{ChunkSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Client().CreateContainer(context.Background(), s.Account(), "events", nil); err != nil {
		t.Fatal(err)
	}
	docs := `{"vid": "V1", "index": 10.5, "state": "NED"}
{"vid": "V2", "index": 5.0, "state": "FRA"}
{"vid": "V3", "index": 7.5, "state": "FRA"}
`
	if _, err := s.Client().PutObject(context.Background(), s.Account(), "events", "e.jsonl", strings.NewReader(docs), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterJSONTable("events", "events", "", "vid string, index double, state string", datasource.JSONOptions{}); err != nil {
		t.Fatal(err)
	}
	q := "SELECT state, sum(index) AS s, count(*) AS n FROM events WHERE index > 4 GROUP BY state ORDER BY state"
	push, err := s.Query(q, QueryOptions{Mode: ModePushdown})
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.Query(q, QueryOptions{Mode: ModeBaseline})
	if err != nil {
		t.Fatal(err)
	}
	if len(push.Rows) != 2 || len(base.Rows) != 2 {
		t.Fatalf("rows: push %v base %v", push.Rows, base.Rows)
	}
	if push.Rows[0][0].S != "FRA" || push.Rows[0][1].F != 12.5 || push.Rows[0][2].I != 2 {
		t.Errorf("FRA row = %v", push.Rows[0])
	}
	for i := range push.Rows {
		for j := range push.Rows[i] {
			if push.Rows[i][j].Compare(base.Rows[i][j]) != 0 {
				t.Errorf("mode mismatch row %d col %d", i, j)
			}
		}
	}
	// Aggregation pushdown is CSV-only for now.
	if _, err := s.AggregateQuery("events", nil, []aggfilter.Spec{{Func: aggfilter.Count, Column: "*"}}, nil, QueryOptions{}); err == nil {
		t.Error("agg pushdown on JSON accepted")
	}
	// Duplicate registration rejected.
	if err := s.RegisterJSONTable("events", "events", "", "vid string", datasource.JSONOptions{}); err == nil {
		t.Error("duplicate json table accepted")
	}
	if err := s.RegisterJSONTable("", "events", "", "vid string", datasource.JSONOptions{}); err == nil {
		t.Error("empty name accepted")
	}
	if err := s.RegisterJSONTable("x", "events", "", "bad", datasource.JSONOptions{}); err == nil {
		t.Error("bad schema accepted")
	}
}

// AggregateQuery must agree with the SQL path and move far fewer bytes.
func TestAggregateQueryEquivalence(t *testing.T) {
	s, _ := newScoop(t)
	sqlRes, err := s.Query(
		"SELECT vid, sum(index) AS s, count(*) AS n FROM largeMeter WHERE state LIKE 'FRA' GROUP BY vid ORDER BY vid",
		QueryOptions{Mode: ModePushdown})
	if err != nil {
		t.Fatal(err)
	}
	aggRes, err := s.AggregateQuery("largeMeter",
		[]string{"vid"},
		[]aggfilter.Spec{{Func: aggfilter.Sum, Column: "index"}, {Func: aggfilter.Count, Column: "*"}},
		[]pushdown.Predicate{{Column: "state", Op: pushdown.OpLike, Value: "FRA"}},
		QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(aggRes.Rows) != len(sqlRes.Rows) {
		t.Fatalf("groups: agg %d vs sql %d", len(aggRes.Rows), len(sqlRes.Rows))
	}
	for i := range sqlRes.Rows {
		if aggRes.Rows[i][0].S != sqlRes.Rows[i][0].S {
			t.Fatalf("row %d key: %v vs %v", i, aggRes.Rows[i][0], sqlRes.Rows[i][0])
		}
		if d := aggRes.Rows[i][1].F - sqlRes.Rows[i][1].F; d > 1e-6 || d < -1e-6 {
			t.Fatalf("row %d sum: %v vs %v", i, aggRes.Rows[i][1], sqlRes.Rows[i][1])
		}
		if aggRes.Rows[i][2].I != sqlRes.Rows[i][2].I {
			t.Fatalf("row %d count: %v vs %v", i, aggRes.Rows[i][2], sqlRes.Rows[i][2])
		}
	}
	// Aggregation pushdown moves less than filter pushdown.
	if aggRes.Metrics.BytesIngested >= sqlRes.Metrics.BytesIngested {
		t.Errorf("agg pushdown moved %d bytes vs filter pushdown %d",
			aggRes.Metrics.BytesIngested, sqlRes.Metrics.BytesIngested)
	}
	if aggRes.Schema.Names()[1] != "sum_index" || aggRes.Schema.Names()[2] != "count" {
		t.Errorf("schema = %v", aggRes.Schema.Names())
	}
}

func TestAggregateQueryGlobal(t *testing.T) {
	s, _ := newScoop(t)
	res, err := s.AggregateQuery("largeMeter", nil,
		[]aggfilter.Spec{{Func: aggfilter.Count, Column: "*"}, {Func: aggfilter.Max, Column: "index"}},
		nil, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	sqlRes, err := s.Query("SELECT count(*) AS n, max(index) AS m FROM largeMeter", QueryOptions{Mode: ModePushdown})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != sqlRes.Rows[0][0].I {
		t.Errorf("count: %v vs %v", res.Rows[0][0], sqlRes.Rows[0][0])
	}
	if d := res.Rows[0][1].F - sqlRes.Rows[0][1].F; d > 1e-6 || d < -1e-6 {
		t.Errorf("max: %v vs %v", res.Rows[0][1], sqlRes.Rows[0][1])
	}
}

// TestAggregateQueryNonASCIITableName pins that AggregateQuery resolves
// table names the way RegisterTable stores them, including non-ASCII case.
func TestAggregateQueryNonASCIITableName(t *testing.T) {
	s, _ := newScoop(t)
	if err := s.RegisterTable("ÄMTER", "meters", "", meter.SchemaDecl, datasource.CSVOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := s.AggregateQuery("ÄMTER", nil, []aggfilter.Spec{{Func: aggfilter.Count, Column: "*"}}, nil, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I == 0 {
		t.Errorf("rows = %v, want one non-zero count", res.Rows)
	}
}

func TestAggregateQueryErrors(t *testing.T) {
	s, _ := newScoop(t)
	if _, err := s.AggregateQuery("ghost", nil, []aggfilter.Spec{{Func: aggfilter.Count, Column: "*"}}, nil, QueryOptions{}); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := s.AggregateQuery("largeMeter", nil, nil, nil, QueryOptions{}); err == nil {
		t.Error("empty specs accepted")
	}
	if _, err := s.AggregateQuery("largeMeter", []string{"ghost"}, []aggfilter.Spec{{Func: aggfilter.Count, Column: "*"}}, nil, QueryOptions{}); err == nil {
		t.Error("unknown group column accepted")
	}
}

func TestModeAuto(t *testing.T) {
	s, _ := newScoop(t)
	// ModeAuto without a controller errors.
	if _, err := s.Query("SELECT count(*) FROM largeMeter", QueryOptions{Mode: ModeAuto}); err == nil {
		t.Error("ModeAuto without EnableAdaptive accepted")
	}
	ctrl, err := adaptive.NewController(adaptive.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.EnableAdaptive(ctrl, "analyst")

	// Selective query: the controller predicts a worthwhile speedup and
	// chooses pushdown.
	res, err := s.Query("SELECT vid FROM largeMeter WHERE state LIKE 'FRA'", QueryOptions{Mode: ModeAuto})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Decision == "" {
		t.Error("ModeAuto left no decision trace")
	}
	if res.Metrics.Mode != ModePushdown {
		t.Errorf("selective query refused pushdown: %v (%s)", res.Metrics.Mode, res.Metrics.Decision)
	}
	// Under critical storage load, even a selective query falls back.
	ctrl.SetLoadProbe(func() float64 { return 0.95 })
	res, err = s.Query("SELECT vid FROM largeMeter WHERE state LIKE 'FRA'", QueryOptions{Mode: ModeAuto})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Mode != ModeBaseline {
		t.Errorf("critical load ignored: %v (%s)", res.Metrics.Mode, res.Metrics.Decision)
	}
	ctrl.SetLoadProbe(nil)
	// Bronze tenants never push down regardless.
	ctrl.SetTenantClass("analyst", adaptive.Bronze)
	res, err = s.Query("SELECT vid FROM largeMeter WHERE state LIKE 'FRA'", QueryOptions{Mode: ModeAuto})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Mode != ModeBaseline || !strings.Contains(res.Metrics.Decision, "bronze") {
		t.Errorf("bronze decision = %v (%s)", res.Metrics.Mode, res.Metrics.Decision)
	}
	if ModeAuto.String() != "auto" {
		t.Error("mode string")
	}
}

func TestAnalyzeTable(t *testing.T) {
	s, _ := newScoop(t)
	if err := s.AnalyzeTable(context.Background(), "largeMeter", 500); err != nil {
		t.Fatal(err)
	}
	if err := s.AnalyzeTable(context.Background(), "ghost", 500); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestExternalClientConfig(t *testing.T) {
	// Build one Scoop, reuse its client for a second instance (external
	// client path: no cluster owned).
	s1, _ := newScoop(t)
	s2, err := New(Config{Client: s1.Client(), Account: s1.Account(), ChunkSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Cluster() != nil {
		t.Error("external-client instance should not own a cluster")
	}
	if err := s2.RegisterTable("m", "meters", "", meter.SchemaDecl, datasource.CSVOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := s2.Query("SELECT count(*) AS n FROM m", QueryOptions{Mode: ModePushdown})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I == 0 {
		t.Error("no rows via external client")
	}
	var _ types.Row // keep types import for clarity of row assertions above
}

// overlapClient runs an armed hook inside the next GetObject it serves,
// after the inner GET has opened and before its stream is handed back: the
// hook's work runs start to finish while that GET is open.
type overlapClient struct {
	objectstore.Client
	hook atomic.Pointer[func()]
}

func (c *overlapClient) GetObject(ctx context.Context, account, container, object string, opts objectstore.GetOptions) (io.ReadCloser, objectstore.ObjectInfo, error) {
	rc, info, err := c.Client.GetObject(ctx, account, container, object, opts)
	if hook := c.hook.Swap(nil); hook != nil {
		(*hook)()
	}
	return rc, info, err
}

// TestOverlappingQueriesCountOwnIngest runs one query entirely inside
// another's open GET on the same Scoop; each must report the bytes and
// requests of its serial run, not the connector's movement meanwhile.
func TestOverlappingQueriesCountOwnIngest(t *testing.T) {
	base, _ := newScoop(t)
	oc := &overlapClient{Client: base.Client()}
	// One worker: the outer query makes no progress while the inner runs.
	s, err := New(Config{Client: oc, Account: base.Account(), ChunkSize: 8 << 10, Compute: compute.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterTable("largeMeter", "meters", "", meter.SchemaDecl, datasource.CSVOptions{}); err != nil {
		t.Fatal(err)
	}
	query := func() (Metrics, error) {
		res, err := s.Query("SELECT vid, sum(index) AS s FROM largeMeter WHERE state LIKE 'FRA' GROUP BY vid",
			QueryOptions{Mode: ModePushdown})
		if err != nil {
			return Metrics{}, err
		}
		return res.Metrics, nil
	}
	agg := func() (Metrics, error) {
		res, err := s.AggregateQuery("largeMeter", []string{"vid"},
			[]aggfilter.Spec{{Func: aggfilter.Count, Column: "*"}}, nil, QueryOptions{})
		if err != nil {
			return Metrics{}, err
		}
		return res.Metrics, nil
	}
	serialQuery, err := query()
	if err != nil {
		t.Fatal(err)
	}
	serialAgg, err := agg()
	if err != nil {
		t.Fatal(err)
	}
	if serialQuery.BytesIngested == 0 || serialAgg.BytesIngested == 0 {
		t.Fatalf("serial runs ingested nothing: %d, %d B", serialQuery.BytesIngested, serialAgg.BytesIngested)
	}
	cases := []struct {
		name                 string
		outer, inner         func() (Metrics, error)
		wantOuter, wantInner Metrics
	}{
		{"Query around AggregateQuery", query, agg, serialQuery, serialAgg},
		{"AggregateQuery around Query", agg, query, serialAgg, serialQuery},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var inner Metrics
			var innerErr error
			ran := false
			hook := func() {
				ran = true
				inner, innerErr = tc.inner()
			}
			oc.hook.Store(&hook)
			outer, err := tc.outer()
			if err != nil {
				t.Fatal(err)
			}
			if !ran || innerErr != nil {
				t.Fatalf("inner query ran=%v err=%v", ran, innerErr)
			}
			for _, c := range []struct {
				role      string
				got, want Metrics
			}{{"outer", outer, tc.wantOuter}, {"inner", inner, tc.wantInner}} {
				if c.got.BytesIngested != c.want.BytesIngested || c.got.Requests != c.want.Requests {
					t.Errorf("%s query: ingested %d B in %d requests, serial run %d B in %d requests",
						c.role, c.got.BytesIngested, c.got.Requests, c.want.BytesIngested, c.want.Requests)
				}
			}
		})
	}
}
