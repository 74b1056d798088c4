package datasource

import (
	"context"
	"fmt"
	"io"
	"sync"

	"scoop/internal/colstore"
	"scoop/internal/connector"
	"scoop/internal/pushdown"
	"scoop/internal/sql/exec"
	"scoop/internal/sql/types"
)

// ParquetRelation reads columnar (colstore) objects — the paper's Apache
// Parquet baseline (§VI-C). Column projection shrinks transfers (only the
// projected columns' compressed chunks travel), but decompression and row
// filtering happen at the compute side, and row selectivity saves nothing on
// the wire. Partitions are row groups.
type ParquetRelation struct {
	conn      *connector.Connector
	container string
	prefix    string

	mu      sync.Mutex
	readers map[string]*colstore.Reader
	schema  *types.Schema
}

// The relation prunes columns at the source (PrunedScanner) but applies
// predicates compute-side, mirroring Parquet-on-Spark-1.6.
var _ PrunedScanner = (*ParquetRelation)(nil)

// NewParquet opens a columnar dataset under container/prefix. The schema is
// read from the first object's footer.
func NewParquet(ctx context.Context, conn *connector.Connector, container, prefix string) (*ParquetRelation, error) {
	r := &ParquetRelation{
		conn:      conn,
		container: container,
		prefix:    prefix,
		readers:   make(map[string]*colstore.Reader),
	}
	objects, err := conn.Client().ListObjects(ctx, conn.Account(), container, prefix)
	if err != nil {
		return nil, err
	}
	if len(objects) == 0 {
		return nil, fmt.Errorf("datasource: no columnar objects under %s/%s", container, prefix)
	}
	rd, err := r.reader(ctx, objects[0].Name, objects[0].Size)
	if err != nil {
		return nil, err
	}
	r.schema = rd.Schema()
	return r, nil
}

// Schema implements Relation.
func (r *ParquetRelation) Schema() *types.Schema { return r.schema }

// Splits implements Relation: one split per row group. The Split's Start
// field carries the row-group index (columnar files are not byte-divisible).
func (r *ParquetRelation) Splits(ctx context.Context) ([]connector.Split, error) {
	objects, err := r.conn.Client().ListObjects(ctx, r.conn.Account(), r.container, r.prefix)
	if err != nil {
		return nil, err
	}
	var out []connector.Split
	for _, obj := range objects {
		rd, err := r.reader(ctx, obj.Name, obj.Size)
		if err != nil {
			return nil, err
		}
		for g := 0; g < rd.Groups(); g++ {
			out = append(out, connector.Split{
				Account:    r.conn.Account(),
				Container:  r.container,
				Object:     obj.Name,
				Start:      int64(g),
				End:        int64(g) + 1,
				ObjectSize: obj.Size,
			})
		}
	}
	return out, nil
}

// Scan implements Relation.
func (r *ParquetRelation) Scan(ctx context.Context, split connector.Split) (exec.Iterator, error) {
	return r.ScanPruned(ctx, split, nil)
}

// ScanPruned implements PrunedScanner: only the named columns' chunks are
// fetched (as ranged GETs through the connector, so ingestion accounting
// sees exactly the transferred bytes).
func (r *ParquetRelation) ScanPruned(ctx context.Context, split connector.Split, columns []string) (exec.Iterator, error) {
	rd, err := r.reader(ctx, split.Object, split.ObjectSize)
	if err != nil {
		return nil, err
	}
	rows, err := rd.ReadGroup(ctx, int(split.Start), columns)
	if err != nil {
		return nil, err
	}
	return exec.NewSliceIterator(rows), nil
}

// ScanPrunedFiltered applies predicates after decoding, at the compute side
// (Parquet cannot discard rows at the store).
func (r *ParquetRelation) ScanPrunedFiltered(ctx context.Context, split connector.Split, columns []string, preds []pushdown.Predicate) (exec.Iterator, error) {
	if len(preds) == 0 {
		return r.ScanPruned(ctx, split, columns)
	}
	// Read the projected columns plus any predicate-only columns.
	need := append([]string(nil), columns...)
	have := make(map[string]bool, len(columns))
	for _, c := range columns {
		have[c] = true
	}
	for _, p := range preds {
		if !have[p.Column] {
			have[p.Column] = true
			need = append(need, p.Column)
		}
	}
	it, err := r.ScanPruned(ctx, split, need)
	if err != nil {
		return nil, err
	}
	outW := len(columns)
	if outW == 0 {
		outW = r.schema.Len()
	}
	colIdx := make(map[string]int, len(need))
	for i, c := range need {
		colIdx[c] = i
	}
	bound := make([]pushdown.Bound, len(preds))
	for i, p := range preds {
		bound[i] = pushdown.Bind(p, colIdx[p.Column])
	}
	return &filteredIterator{it: it, preds: bound, outWidth: outW}, nil
}

type filteredIterator struct {
	it       exec.Iterator
	preds    []pushdown.Bound
	outWidth int
}

// Next implements exec.Iterator.
func (f *filteredIterator) Next() (types.Row, error) {
	for {
		row, err := f.it.Next()
		if err != nil {
			return nil, err
		}
		ok := true
		for i := range f.preds {
			p := &f.preds[i]
			v := row[p.Field]
			if !p.Match([]byte(v.AsString()), v.IsNull()) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		return row[:f.outWidth], nil
	}
}

// Close implements exec.Iterator.
func (f *filteredIterator) Close() error { return f.it.Close() }

func (r *ParquetRelation) reader(ctx context.Context, object string, size int64) (*colstore.Reader, error) {
	r.mu.Lock()
	if rd, ok := r.readers[object]; ok {
		r.mu.Unlock()
		return rd, nil
	}
	r.mu.Unlock()
	fetcher := &connFetcher{conn: r.conn, container: r.container, object: object, size: size}
	rd, err := colstore.NewReader(ctx, fetcher, size)
	if err != nil {
		return nil, fmt.Errorf("datasource: open columnar %s: %w", object, err)
	}
	r.mu.Lock()
	r.readers[object] = rd
	r.mu.Unlock()
	return rd, nil
}

// connFetcher turns column-chunk reads into ranged GETs.
type connFetcher struct {
	conn      *connector.Connector
	container string
	object    string
	size      int64
}

// Fetch implements colstore.RangeFetcher.
func (c *connFetcher) Fetch(ctx context.Context, off, size int64) ([]byte, error) {
	rc, err := c.conn.Open(ctx, connector.Split{
		Account:    c.conn.Account(),
		Container:  c.container,
		Object:     c.object,
		Start:      off,
		End:        off + size,
		ObjectSize: c.size,
	}, nil)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(rc)
}
