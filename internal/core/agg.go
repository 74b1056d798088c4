package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"scoop/internal/compute"
	"scoop/internal/connector"
	"scoop/internal/csvio"
	"scoop/internal/datasource"
	"scoop/internal/metrics"
	"scoop/internal/pushdown"
	"scoop/internal/sql/types"
	"scoop/internal/storlet/aggfilter"
)

// AggregateQuery runs a GROUP-BY aggregation with *aggregation pushdown*
// (paper §IV: the store "can perform aggregations on individual object
// requests"): each split returns one partial record per group instead of
// every matching row, and the driver merges the algebraic partials exactly.
//
// Compared to Query (filter pushdown), this moves O(groups) instead of
// O(matching rows) — the ablation the repository's benchmarks measure.
func (s *Scoop) AggregateQuery(table string, groupCols []string, specs []aggfilter.Spec, preds []pushdown.Predicate, opts QueryOptions) (*Result, error) {
	start := time.Now()
	s.mu.RLock()
	def, ok := s.tables[strings.ToLower(table)]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown table %q", table)
	}
	if def.format == "json" {
		return nil, fmt.Errorf("core: aggregation pushdown currently supports CSV tables only")
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: aggregate query needs at least one spec")
	}
	schema, err := types.ParseSchema(def.decl)
	if err != nil {
		return nil, err
	}
	for _, c := range groupCols {
		if schema.Index(c) < 0 {
			return nil, fmt.Errorf("core: unknown group column %q", c)
		}
	}

	task := &pushdown.Task{
		Filter:     aggfilter.FilterName,
		Schema:     def.decl,
		Predicates: preds,
		Options: map[string]string{
			aggfilter.OptAggs: aggfilter.FormatSpecs(specs),
		},
	}
	if len(groupCols) > 0 {
		task.Options[aggfilter.OptGroup] = strings.Join(groupCols, ",")
	}
	if def.opts.Header {
		task.Options[aggfilter.OptHeader] = "true"
	}

	rel, err := datasource.NewCSV(s.conn, def.container, def.prefix, def.decl, def.opts)
	if err != nil {
		return nil, err
	}
	splits, err := rel.Splits(opts.ctx())
	if err != nil {
		return nil, err
	}
	tasks := make([]compute.Task, len(splits))
	for i, split := range splits {
		split := split
		tasks[i] = func(ctx context.Context) (any, error) {
			rc, err := s.conn.Open(ctx, split, []*pushdown.Task{task})
			if err != nil {
				return nil, err
			}
			defer rc.Close()
			return readPartials(rc)
		}
	}
	var ingested, requests metrics.Counter
	results, cstats, err := s.driver.Run(connector.WithQueryCounters(opts.ctx(), &ingested, &requests), tasks)
	if err != nil {
		return nil, err
	}
	var partials [][]string
	for _, v := range results {
		partials = append(partials, v.([][]string)...)
	}
	merged, err := aggfilter.Merge(partials, len(groupCols), specs)
	if err != nil {
		return nil, err
	}

	outSchema, rows := aggResult(schema, groupCols, specs, merged)
	return &Result{
		Schema: outSchema,
		Rows:   rows,
		Metrics: Metrics{
			Mode:          ModePushdown,
			WallTime:      time.Since(start),
			BytesIngested: ingested.Load(),
			Requests:      requests.Load(),
			Splits:        len(splits),
			RowsScanned:   int64(len(partials)),
			RowsReturned:  len(rows),
			Compute:       cstats,
		},
	}, nil
}

// readPartials parses the filter's CSV partial records.
func readPartials(r io.Reader) ([][]string, error) {
	rr := csvio.NewRangeReader(r, 0, int64(1)<<62)
	var out [][]string
	var sc csvio.FieldScanner
	for {
		rec, err := rr.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		fields := sc.Scan(rec, csvio.DefaultDelimiter)
		row := make([]string, len(fields))
		for i, f := range fields {
			row[i] = string(f)
		}
		out = append(out, row)
	}
}

// aggResult converts merged records into typed result rows.
func aggResult(schema *types.Schema, groupCols []string, specs []aggfilter.Spec, merged [][]string) (*types.Schema, []types.Row) {
	cols := make([]types.Column, 0, len(groupCols)+len(specs))
	for _, g := range groupCols {
		t := types.String
		if i := schema.Index(g); i >= 0 {
			t = schema.Columns[i].Type
		}
		cols = append(cols, types.Column{Name: g, Type: t})
	}
	for _, sp := range specs {
		name := string(sp.Func) + "_" + sp.Column
		if sp.Column == "*" {
			name = string(sp.Func)
		}
		t := types.Float
		if sp.Func == aggfilter.Count {
			t = types.Int
		} else if sp.Func == aggfilter.Min || sp.Func == aggfilter.Max {
			if i := schema.Index(sp.Column); i >= 0 {
				t = schema.Columns[i].Type
			}
		}
		cols = append(cols, types.Column{Name: name, Type: t})
	}
	outSchema := types.NewSchema(cols...)
	rows := make([]types.Row, len(merged))
	for i, rec := range merged {
		row := make(types.Row, len(cols))
		for j := range cols {
			raw := ""
			if j < len(rec) {
				raw = rec[j]
			}
			row[j] = types.Coerce(raw, cols[j].Type)
		}
		rows[i] = row
	}
	return outSchema, rows
}
