package main

import (
	"fmt"
	"math"

	"scoop/internal/core"
	"scoop/internal/sql/types"
)

// relTol is the relative tolerance numeric answers are compared at: sums
// merged in a different order (aggregation partials, parallel splits) may
// differ in their last bits, never by more.
const relTol = 1e-9

// oracle holds the reference answer of each distinct query.
type oracle [][]types.Row

// buildOracle computes every query's reference answer with in-process
// baseline mode (ingest-then-compute). AggByMeter's reference is its SQL
// twin.
func buildOracle(sys *system, qs []query) (oracle, error) {
	ref := make(oracle, len(qs))
	for i, q := range qs {
		res, err := sys.ref.Query(q.SQL, core.QueryOptions{Mode: core.ModeBaseline})
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.Name, err)
		}
		if len(res.Rows) == 0 {
			return nil, fmt.Errorf("reference %s: empty answer", q.Name)
		}
		ref[i] = res.Rows
	}
	return ref, nil
}

// check compares got with query i's reference: same rows in the same order,
// numbers within relTol, everything else exactly.
func (o oracle) check(i int, got []types.Row) error {
	want := o[i]
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for r := range want {
		if len(got[r]) != len(want[r]) {
			return fmt.Errorf("row %d: %d columns, want %d", r, len(got[r]), len(want[r]))
		}
		for c := range want[r] {
			if !sameValue(got[r][c], want[r][c]) {
				return fmt.Errorf("row %d column %d: %v, want %v", r, c, got[r][c], want[r][c])
			}
		}
	}
	return nil
}

func sameValue(a, b types.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	if a.T == types.String || b.T == types.String {
		return a.T == b.T && a.S == b.S
	}
	x, okA := a.AsFloat()
	y, okB := b.AsFloat()
	if !okA || !okB {
		return a.Equal(b)
	}
	return math.Abs(x-y) <= relTol*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
}
