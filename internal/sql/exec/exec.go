// Package exec runs the residual (compute-side) part of an analyzed plan:
// the filtering not pushed to the object store, projection, aggregation,
// HAVING, DISTINCT, ORDER BY and LIMIT. In the paper's workflow this is the
// processing that remains on Spark workers and the driver after Swift has
// returned filtered data: each split's rows fold into a Partial inside the
// task that reads the split, and Finish merges the partials once.
package exec

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"scoop/internal/sql/expr"
	"scoop/internal/sql/parser"
	"scoop/internal/sql/plan"
	"scoop/internal/sql/types"
)

// Iterator yields rows until io.EOF.
type Iterator interface {
	// Next returns the next row or io.EOF when exhausted.
	Next() (types.Row, error)
	// Close releases resources. Safe to call multiple times.
	Close() error
}

// SliceIterator iterates over an in-memory row slice.
type SliceIterator struct {
	rows []types.Row
	i    int
}

// NewSliceIterator returns an Iterator over rows.
func NewSliceIterator(rows []types.Row) *SliceIterator {
	return &SliceIterator{rows: rows}
}

// Next implements Iterator.
func (s *SliceIterator) Next() (types.Row, error) {
	if s.i >= len(s.rows) {
		return nil, io.EOF
	}
	r := s.rows[s.i]
	s.i++
	return r, nil
}

// Close implements Iterator.
func (s *SliceIterator) Close() error { return nil }

// Result is the outcome of executing a plan.
type Result struct {
	Schema *types.Schema
	Rows   []types.Row
}

// Execute runs the residual plan over input rows (already pruned to
// p.Read's layout and already filtered by any pushed predicates): one
// Partial over the whole input, then Finish.
func Execute(p *plan.Plan, input Iterator) (*Result, error) {
	defer input.Close()
	part, err := NewPartial(p)
	if err != nil {
		return nil, err
	}
	for {
		r, err := input.Next()
		if errors.Is(err, io.EOF) {
			return Finish(p, []*Partial{part})
		}
		if err != nil {
			return nil, err
		}
		if err := part.Add(r); err != nil {
			return nil, err
		}
	}
}

// Partial is the fold state of one split. Add applies the residual filter
// to each row, then updates the row's group accumulators (aggregate plans)
// or keeps its projected, ORDER BY-keyed output row. A Partial is used by
// one goroutine at a time; partials of different splits share nothing but
// the read-only plan.
type Partial struct {
	p     *plan.Plan
	calls []*expr.Call
	rows  int64

	groups map[string]*group
	order  []*group // first appearance
	key    []byte   // group-key scratch, reused across rows

	out []keyedRow
}

// group holds per-group state.
type group struct {
	key      string
	firstRow types.Row
	accs     []accumulator
}

// keyedRow pairs an output row with its ORDER BY key values.
type keyedRow struct {
	row  types.Row
	keys []types.Value
}

// NewPartial returns an empty fold state for p. It fails when p uses an
// aggregate the executor does not support.
func NewPartial(p *plan.Plan) (*Partial, error) {
	pt := &Partial{p: p}
	if p.Aggregate {
		pt.calls, _ = aggCalls(p)
		if _, err := newAccumulators(pt.calls); err != nil {
			return nil, err
		}
		pt.groups = make(map[string]*group)
	}
	return pt, nil
}

// Rows returns the number of rows handed to Add, before the residual filter.
func (pt *Partial) Rows() int64 { return pt.rows }

// Add folds one input row into the partial.
func (pt *Partial) Add(r types.Row) error {
	pt.rows++
	p := pt.p
	if p.Residual != nil {
		ok, err := expr.EvalPredicate(p.Residual, r)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
	if !p.Aggregate {
		outRow := make(types.Row, len(p.Items))
		for i, it := range p.Items {
			v, err := it.Expr.Eval(r)
			if err != nil {
				return err
			}
			outRow[i] = v
		}
		keys, err := orderKeys(p.OrderBy, r, nil)
		if err != nil {
			return err
		}
		pt.out = append(pt.out, keyedRow{row: outRow, keys: keys})
		return nil
	}

	key := pt.key[:0]
	for _, g := range p.GroupBy {
		v, err := g.Eval(r)
		if err != nil {
			return err
		}
		key = appendKey(key, v)
	}
	pt.key = key
	g := pt.groups[string(key)] // no allocation: the conversion only indexes
	if g == nil {
		accs, err := newAccumulators(pt.calls)
		if err != nil {
			return err
		}
		g = &group{key: string(key), firstRow: r, accs: accs}
		pt.groups[g.key] = g
		pt.order = append(pt.order, g)
	}
	for _, acc := range g.accs {
		if err := acc.add(r); err != nil {
			return err
		}
	}
	return nil
}

// Finish merges parts in split order and runs HAVING, DISTINCT, ORDER BY
// and LIMIT over the merged rows. The result equals Execute over the
// concatenation of the parts' inputs: groups appear in order of first
// appearance, and a group's non-aggregate items read its earliest row.
// Finish consumes the partials; parts[0] absorbs the others.
func Finish(p *plan.Plan, parts []*Partial) (*Result, error) {
	var out []keyedRow
	if p.Aggregate {
		var err error
		if out, err = finishGroups(p, parts); err != nil {
			return nil, err
		}
	} else {
		n := 0
		for _, pt := range parts {
			n += len(pt.out)
		}
		out = make([]keyedRow, 0, n)
		for _, pt := range parts {
			out = append(out, pt.out...)
		}
	}

	if p.Sel.Distinct {
		out = distinct(out)
	}
	if len(p.OrderBy) > 0 {
		sortRows(out, p.OrderBy)
	}
	if p.Sel.Limit >= 0 && int64(len(out)) > p.Sel.Limit {
		out = out[:p.Sel.Limit]
	}
	rows := make([]types.Row, len(out))
	for i, kr := range out {
		rows[i] = kr.row
	}
	return &Result{Schema: p.Output, Rows: rows}, nil
}

// finishGroups merges the partials' groups and renders one output row per
// group that passes HAVING.
func finishGroups(p *plan.Plan, parts []*Partial) ([]keyedRow, error) {
	calls, index := aggCalls(p)
	var order []*group
	if len(parts) > 0 {
		dst := parts[0]
		for _, src := range parts[1:] {
			for _, g := range src.order {
				d := dst.groups[g.key]
				if d == nil {
					dst.groups[g.key] = g
					dst.order = append(dst.order, g)
					continue
				}
				for i, acc := range d.accs {
					acc.merge(g.accs[i])
				}
			}
		}
		order = dst.order
	}

	// Global aggregates over an empty input still produce one row
	// (COUNT(*) = 0 etc.), but only when there is no GROUP BY.
	if len(order) == 0 && len(p.GroupBy) == 0 {
		accs, err := newAccumulators(calls)
		if err != nil {
			return nil, err
		}
		order = append(order, &group{firstRow: make(types.Row, p.Read.Len()), accs: accs})
	}

	out := make([]keyedRow, 0, len(order))
	for _, g := range order {
		// substitute computed aggregate values into the expressions, then
		// evaluate against the group's first row (non-aggregate parts of an
		// item therefore get first-row semantics, as Table I queries expect).
		subst := func(e expr.Expr) expr.Expr {
			return expr.Transform(e, func(n expr.Expr) (expr.Expr, bool) {
				if c, ok := n.(*expr.Call); ok && expr.IsAggregate(c.Name) {
					if i, ok := index[c.String()]; ok {
						return &expr.Literal{Val: g.accs[i].value()}, true
					}
				}
				return nil, false
			})
		}
		if p.Having != nil {
			ok, err := expr.EvalPredicate(subst(p.Having), g.firstRow)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		outRow := make(types.Row, len(p.Items))
		for i, it := range p.Items {
			v, err := subst(it.Expr).Eval(g.firstRow)
			if err != nil {
				return nil, err
			}
			outRow[i] = v
		}
		keys, err := orderKeys(p.OrderBy, g.firstRow, subst)
		if err != nil {
			return nil, err
		}
		out = append(out, keyedRow{row: outRow, keys: keys})
	}
	return out, nil
}

// orderKeys evaluates the ORDER BY expressions against r, each rewritten by
// subst when it is non-nil.
func orderKeys(orderBy []parser.OrderItem, r types.Row, subst func(expr.Expr) expr.Expr) ([]types.Value, error) {
	if len(orderBy) == 0 {
		return nil, nil
	}
	keys := make([]types.Value, len(orderBy))
	for i, o := range orderBy {
		e := o.Expr
		if subst != nil {
			e = subst(e)
		}
		v, err := e.Eval(r)
		if err != nil {
			return nil, err
		}
		keys[i] = v
	}
	return keys, nil
}

// aggCalls collects the distinct aggregate calls used anywhere in the query,
// and indexes them by their rendered form.
func aggCalls(p *plan.Plan) ([]*expr.Call, map[string]int) {
	var calls []*expr.Call
	index := make(map[string]int)
	collect := func(e expr.Expr) {
		for _, c := range expr.Aggregates(e) {
			if _, ok := index[c.String()]; !ok {
				index[c.String()] = len(calls)
				calls = append(calls, c)
			}
		}
	}
	for _, it := range p.Items {
		collect(it.Expr)
	}
	if p.Having != nil {
		collect(p.Having)
	}
	for _, o := range p.OrderBy {
		collect(o.Expr)
	}
	return calls, index
}

// appendKey appends v's collision-safe key form to b: a tag byte keeps NULL
// apart from the empty string, and types.AppendKey makes the value's bytes
// an injective key component.
func appendKey(b []byte, v types.Value) []byte {
	if v.IsNull() {
		return types.AppendKey(append(b, 0x01), nil)
	}
	return types.AppendKey(append(b, 0x02), []byte(v.AsString()))
}

func distinct(rows []keyedRow) []keyedRow {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	var key []byte
	for _, kr := range rows {
		key = key[:0]
		for _, v := range kr.row {
			key = appendKey(key, v)
		}
		if !seen[string(key)] {
			seen[string(key)] = true
			out = append(out, kr)
		}
	}
	return out
}

// --- Aggregation ---

// accumulator updates one aggregate over a group's rows. merge folds in
// the state of the same aggregate over a later split's rows, so that
// merging per-split accumulators in split order equals adding every row in
// that order (up to float addition order for SUM and AVG).
type accumulator interface {
	add(row types.Row) error
	merge(later accumulator)
	value() types.Value
}

// newAccumulators returns fresh accumulators for calls, in order.
func newAccumulators(calls []*expr.Call) ([]accumulator, error) {
	accs := make([]accumulator, len(calls))
	for i, c := range calls {
		acc, err := newAccumulator(c)
		if err != nil {
			return nil, err
		}
		accs[i] = acc
	}
	return accs, nil
}

func newAccumulator(c *expr.Call) (accumulator, error) {
	name := strings.ToUpper(c.Name)
	if name == "COUNT" {
		if len(c.Args) != 1 {
			return nil, fmt.Errorf("exec: COUNT wants 1 arg")
		}
		if _, ok := c.Args[0].(expr.Star); ok {
			if c.Distinct {
				return nil, fmt.Errorf("exec: COUNT(DISTINCT *) is not valid")
			}
			return &countAcc{star: true}, nil
		}
		if c.Distinct {
			return &distinctAcc{arg: c.Args[0], count: true}, nil
		}
		return &countAcc{arg: c.Args[0]}, nil
	}
	if len(c.Args) != 1 {
		return nil, fmt.Errorf("exec: %s wants 1 arg, got %d", name, len(c.Args))
	}
	arg := c.Args[0]
	if c.Distinct {
		if name != "SUM" {
			return nil, fmt.Errorf("exec: DISTINCT is supported for COUNT and SUM, not %s", name)
		}
		return &distinctAcc{arg: arg}, nil
	}
	switch name {
	case "SUM":
		return &sumAcc{arg: arg}, nil
	case "AVG":
		return &avgAcc{arg: arg}, nil
	case "MIN":
		return &minMaxAcc{arg: arg, min: true}, nil
	case "MAX":
		return &minMaxAcc{arg: arg}, nil
	case "FIRST_VALUE":
		return &firstAcc{arg: arg}, nil
	default:
		return nil, fmt.Errorf("exec: unknown aggregate %q", name)
	}
}

type countAcc struct {
	star bool
	arg  expr.Expr
	n    int64
}

func (a *countAcc) add(row types.Row) error {
	if a.star {
		a.n++
		return nil
	}
	v, err := a.arg.Eval(row)
	if err != nil {
		return err
	}
	if !v.IsNull() {
		a.n++
	}
	return nil
}

func (a *countAcc) merge(later accumulator) { a.n += later.(*countAcc).n }

func (a *countAcc) value() types.Value { return types.IntV(a.n) }

type sumAcc struct {
	arg expr.Expr
	sum float64
	any bool
}

func (a *sumAcc) add(row types.Row) error {
	v, err := a.arg.Eval(row)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	f, ok := v.AsFloat()
	if !ok {
		return nil // non-numeric values are ignored, like SQL casts failing to NULL
	}
	a.sum += f
	a.any = true
	return nil
}

func (a *sumAcc) merge(later accumulator) {
	b := later.(*sumAcc)
	a.sum += b.sum
	a.any = a.any || b.any
}

func (a *sumAcc) value() types.Value {
	if !a.any {
		return types.NullValue()
	}
	return types.FloatV(a.sum)
}

type avgAcc struct {
	arg expr.Expr
	sum float64
	n   int64
}

func (a *avgAcc) add(row types.Row) error {
	v, err := a.arg.Eval(row)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	f, ok := v.AsFloat()
	if !ok {
		return nil
	}
	a.sum += f
	a.n++
	return nil
}

func (a *avgAcc) merge(later accumulator) {
	b := later.(*avgAcc)
	a.sum += b.sum
	a.n += b.n
}

func (a *avgAcc) value() types.Value {
	if a.n == 0 {
		return types.NullValue()
	}
	return types.FloatV(a.sum / float64(a.n))
}

type minMaxAcc struct {
	arg  expr.Expr
	min  bool
	best types.Value
	any  bool
}

func (a *minMaxAcc) add(row types.Row) error {
	v, err := a.arg.Eval(row)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	if !a.any {
		a.best = v
		a.any = true
		return nil
	}
	c := v.Compare(a.best)
	if (a.min && c < 0) || (!a.min && c > 0) {
		a.best = v
	}
	return nil
}

// merge keeps the earlier best on ties, as add does.
func (a *minMaxAcc) merge(later accumulator) {
	b := later.(*minMaxAcc)
	if !b.any {
		return
	}
	if !a.any {
		a.best, a.any = b.best, true
		return
	}
	c := b.best.Compare(a.best)
	if (a.min && c < 0) || (!a.min && c > 0) {
		a.best = b.best
	}
}

func (a *minMaxAcc) value() types.Value {
	if !a.any {
		return types.NullValue()
	}
	return a.best
}

type firstAcc struct {
	arg expr.Expr
	v   types.Value
	any bool
}

func (a *firstAcc) add(row types.Row) error {
	if a.any {
		return nil
	}
	v, err := a.arg.Eval(row)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil // first non-null, matching Spark's ignoreNulls-friendly use
	}
	a.v = v
	a.any = true
	return nil
}

func (a *firstAcc) merge(later accumulator) {
	if b := later.(*firstAcc); !a.any && b.any {
		a.v, a.any = b.v, true
	}
}

func (a *firstAcc) value() types.Value {
	if !a.any {
		return types.NullValue()
	}
	return a.v
}

// distinctAcc implements COUNT(DISTINCT x) and SUM(DISTINCT x) by keying
// values on their rendered form.
type distinctAcc struct {
	arg   expr.Expr
	count bool // COUNT when true, SUM otherwise
	seen  map[string]types.Value
}

func (a *distinctAcc) add(row types.Row) error {
	v, err := a.arg.Eval(row)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	if a.seen == nil {
		a.seen = make(map[string]types.Value)
	}
	a.seen[v.AsString()] = v
	return nil
}

// merge lets the later split's value win per rendered key, as add lets the
// later row's.
func (a *distinctAcc) merge(later accumulator) {
	b := later.(*distinctAcc)
	if a.seen == nil {
		a.seen = b.seen
		return
	}
	for k, v := range b.seen {
		a.seen[k] = v
	}
}

func (a *distinctAcc) value() types.Value {
	if a.count {
		return types.IntV(int64(len(a.seen)))
	}
	if len(a.seen) == 0 {
		return types.NullValue()
	}
	var sum float64
	for _, v := range a.seen {
		f, ok := v.AsFloat()
		if ok {
			sum += f
		}
	}
	return types.FloatV(sum)
}

func sortRows(rows []keyedRow, orderBy []parser.OrderItem) {
	sort.SliceStable(rows, func(i, j int) bool {
		for k := range orderBy {
			c := rows[i].keys[k].Compare(rows[j].keys[k])
			if c == 0 {
				continue
			}
			if orderBy[k].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}
