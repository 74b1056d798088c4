package datasource

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"scoop/internal/colstore"
	"scoop/internal/connector"
	"scoop/internal/pushdown"
	"scoop/internal/sql/exec"
	"scoop/internal/sql/types"
)

// uploadColumnar converts meterCSV into a columnar object.
func uploadColumnar(t *testing.T, fx *fixture, object string, groupSize int) {
	t.Helper()
	schema, err := types.ParseSchema(schemaDecl)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := colstore.NewWriter(&buf, schemaDecl, groupSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(meterCSV), "\n") {
		fields := strings.Split(line, ",")
		row := make(types.Row, len(fields))
		for i, f := range fields {
			row[i] = types.Coerce(f, schema.Columns[i].Type)
		}
		if err := w.WriteRow(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.conn.Upload(context.Background(), "meters", object, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
}

func newParquetFixture(t *testing.T, groupSize int) (*fixture, *ParquetRelation) {
	t.Helper()
	fx := newFixture(t, 0)
	uploadColumnar(t, fx, "jan.col", groupSize)
	rel, err := NewParquet(context.Background(), fx.conn, "meters", "jan.col")
	if err != nil {
		t.Fatal(err)
	}
	return fx, rel
}

func TestParquetScanAll(t *testing.T) {
	_, rel := newParquetFixture(t, 0)
	if rel.Schema().Len() != 5 {
		t.Fatalf("schema = %v", rel.Schema())
	}
	rows := allRows(t, rel, rel.Scan)
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].S != "V1" || rows[0][2].F != 10.5 {
		t.Errorf("row0 = %v", rows[0])
	}
}

func TestParquetRowGroupSplits(t *testing.T) {
	_, rel := newParquetFixture(t, 2) // 3 rows -> 2 groups
	splits, err := rel.Splits(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 2 {
		t.Fatalf("splits = %v", splits)
	}
	rows := allRows(t, rel, rel.Scan)
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestParquetPruning(t *testing.T) {
	fx, rel := newParquetFixture(t, 0)
	fx.conn.ResetStats()
	rows := allRows(t, rel, func(ctx context.Context, s connector.Split) (exec.Iterator, error) {
		return rel.ScanPruned(context.Background(), s, []string{"vid"})
	})
	oneCol := fx.conn.Stats().BytesIngested
	if len(rows) != 3 || len(rows[0]) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	fx.conn.ResetStats()
	_ = allRows(t, rel, rel.Scan)
	allCols := fx.conn.Stats().BytesIngested
	if oneCol >= allCols {
		t.Errorf("pruned fetch %d >= full fetch %d", oneCol, allCols)
	}
}

func TestParquetComputeSideFilter(t *testing.T) {
	_, rel := newParquetFixture(t, 0)
	preds := []pushdown.Predicate{{Column: "state", Op: pushdown.OpEq, Value: "FRA"}}
	rows := allRows(t, rel, func(ctx context.Context, s connector.Split) (exec.Iterator, error) {
		return rel.ScanPrunedFiltered(context.Background(), s, []string{"vid"}, preds)
	})
	if len(rows) != 1 || rows[0][0].S != "V2" || len(rows[0]) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	// Numeric predicate on decoded values.
	preds = []pushdown.Predicate{{Column: "index", Op: pushdown.OpGt, Value: "6", Numeric: true}}
	rows = allRows(t, rel, func(ctx context.Context, s connector.Split) (exec.Iterator, error) {
		return rel.ScanPrunedFiltered(context.Background(), s, []string{"vid", "index"}, preds)
	})
	if len(rows) != 1 || rows[0][0].S != "V1" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestParquetRowSelectivityDoesNotReduceTransfer(t *testing.T) {
	fx, rel := newParquetFixture(t, 0)
	cols := []string{"vid", "state"}
	fx.conn.ResetStats()
	_ = allRows(t, rel, func(ctx context.Context, s connector.Split) (exec.Iterator, error) {
		return rel.ScanPrunedFiltered(context.Background(), s, cols, nil)
	})
	noFilter := fx.conn.Stats().BytesIngested
	fx.conn.ResetStats()
	preds := []pushdown.Predicate{{Column: "state", Op: pushdown.OpEq, Value: "FRA"}}
	_ = allRows(t, rel, func(ctx context.Context, s connector.Split) (exec.Iterator, error) {
		return rel.ScanPrunedFiltered(context.Background(), s, cols, preds)
	})
	withFilter := fx.conn.Stats().BytesIngested
	if withFilter != noFilter {
		t.Errorf("row filter changed transfer: %d vs %d (Parquet cannot discard rows at the store)", withFilter, noFilter)
	}
}

func TestParquetMissingDataset(t *testing.T) {
	fx := newFixture(t, 0)
	if _, err := NewParquet(context.Background(), fx.conn, "meters", "nonexistent"); err == nil {
		t.Error("missing dataset accepted")
	}
	// A non-columnar object fails to open.
	if _, err := NewParquet(context.Background(), fx.conn, "meters", "jan.csv"); err == nil {
		t.Error("CSV object accepted as columnar")
	}
}
