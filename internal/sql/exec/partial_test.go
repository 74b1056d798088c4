package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"scoop/internal/sql/plan"
	"scoop/internal/sql/types"
)

// mergeQueries cover every aggregate, the clauses Finish runs after the
// merge, NULL group keys and inputs the residual empties.
var mergeQueries = []string{
	"SELECT count(*) AS n FROM m",
	"SELECT vid, count(*) AS n, count(city) AS c, sum(index) AS s, avg(index) AS a, min(index) AS lo, max(index) AS hi, first_value(city) AS f FROM m GROUP BY vid",
	"SELECT city, count(DISTINCT vid) AS d, sum(DISTINCT index) AS sd FROM m GROUP BY city",
	"SELECT state, vid, sum(index) AS s FROM m WHERE index > 10 GROUP BY state, vid HAVING count(*) > 1 ORDER BY s DESC LIMIT 3",
	"SELECT vid, city, min(date) AS d, max(date) AS e FROM m GROUP BY vid ORDER BY d",
	"SELECT sum(index) AS s, avg(index) AS a, min(index) AS lo, first_value(vid) AS f FROM m WHERE vid = 'none'",
	"SELECT state, count(*) AS n FROM m GROUP BY state ORDER BY n LIMIT 2",
	"SELECT DISTINCT city, state FROM m",
	"SELECT DISTINCT vid FROM m ORDER BY vid LIMIT 3",
	"SELECT vid, index FROM m WHERE city LIKE 'A%' ORDER BY index DESC LIMIT 7",
	"SELECT vid, date FROM m",
}

// randomMergeRow draws a row whose values collide often: few distinct
// keys, NULLs in every column, and index values that tie across Int and
// Float so the MIN/MAX tie rule shows in the result's type.
func randomMergeRow(rng *rand.Rand) types.Row {
	pick := func(vals ...string) types.Value {
		i := rng.Intn(len(vals) + 1)
		if i == len(vals) {
			return types.NullValue()
		}
		return types.Str(vals[i])
	}
	var index types.Value
	switch k := rng.Intn(40); rng.Intn(4) {
	case 0:
		index = types.IntV(int64(k))
	case 1:
		index = types.NullValue()
	default:
		index = types.FloatV(float64(k) / 4)
	}
	return types.Row{
		pick("V1", "V2", "V3", "V4"),
		pick("2015-01-01", "2015-01-02", "2015-02-01"),
		index,
		pick("A", "B", "Ar"),
		pick("X", "Y"),
	}
}

// Finish over any cut of the input into partials — empty ones included —
// must equal Execute over the whole input: same rows, same order, floats
// within 1e-9 relative.
func TestFinishMatchesExecuteProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	plans := make([]*plan.Plan, len(mergeQueries))
	for i, q := range mergeQueries {
		plans[i] = analyze(t, q)
	}
	for trial := 0; trial < 200; trial++ {
		rows := make([]types.Row, rng.Intn(60))
		for i := range rows {
			rows[i] = randomMergeRow(rng)
		}
		cuts := make([]int, 1+rng.Intn(8))
		for i := range cuts[1:] {
			cuts[i+1] = rng.Intn(len(rows) + 1)
		}
		for i := 1; i < len(cuts); i++ { // insertion sort: cuts is short
			for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
				cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
			}
		}
		for qi, p := range plans {
			want, err := Execute(p, NewSliceIterator(rows))
			if err != nil {
				t.Fatalf("%s: %v", mergeQueries[qi], err)
			}
			parts := make([]*Partial, len(cuts))
			var added int64
			for i, lo := range cuts {
				hi := len(rows)
				if i+1 < len(cuts) {
					hi = cuts[i+1]
				}
				part, err := NewPartial(p)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range rows[lo:hi] {
					if err := part.Add(r); err != nil {
						t.Fatal(err)
					}
				}
				added += part.Rows()
				parts[i] = part
			}
			if added != int64(len(rows)) {
				t.Fatalf("partials saw %d rows, input has %d", added, len(rows))
			}
			got, err := Finish(p, parts)
			if err != nil {
				t.Fatalf("%s: %v", mergeQueries[qi], err)
			}
			if msg := diffRows(want.Rows, got.Rows); msg != "" {
				t.Fatalf("trial %d, %s, cuts %v: %s\nexecute: %v\nfinish:  %v",
					trial, mergeQueries[qi], cuts, msg, want.Rows, got.Rows)
			}
		}
	}
}

// diffRows describes the first difference between want and got, or
// returns "" when they match.
func diffRows(want, got []types.Row) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			a, b := want[i][j], got[i][j]
			same := a.T == b.T && a.S == b.S && a.I == b.I && a.B == b.B
			if a.T == types.Float && same {
				same = math.Abs(a.F-b.F) <= 1e-9*math.Max(math.Abs(a.F), math.Abs(b.F))
			}
			if !same {
				return fmt.Sprintf("row %d col %d: %#v, want %#v", i, j, b, a)
			}
		}
	}
	return ""
}

func TestFinishWithoutPartials(t *testing.T) {
	res, err := Finish(analyze(t, "SELECT count(*) AS n, sum(index) AS s FROM m"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 0 || !res.Rows[0][1].IsNull() {
		t.Errorf("rows = %v", res.Rows)
	}
	res, err = Finish(analyze(t, "SELECT vid, count(*) AS n FROM m GROUP BY vid"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("grouped rows = %v", res.Rows)
	}
}

// The per-split merge rules, pinned on the accumulators themselves.
func TestAccumulatorMergeKeepsSequentialRules(t *testing.T) {
	p := analyze(t, "SELECT min(index) AS lo, max(index) AS hi, first_value(city) AS f, count(DISTINCT index) AS d FROM m")
	early := types.Row{types.Str("V1"), types.Str("d"), types.IntV(5), types.NullValue(), types.Str("X")}
	late := types.Row{types.Str("V1"), types.Str("d"), types.FloatV(5), types.Str("B"), types.Str("X")}
	a, err := NewPartial(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPartial(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Add(early); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(late); err != nil {
		t.Fatal(err)
	}
	accs := a.order[0].accs
	for i, acc := range accs {
		acc.merge(b.order[0].accs[i])
	}
	// MIN and MAX keep the earlier of two equal values.
	if v := accs[0].value(); v.T != types.Int {
		t.Errorf("min tie took the later value %#v", v)
	}
	if v := accs[1].value(); v.T != types.Int {
		t.Errorf("max tie took the later value %#v", v)
	}
	// FIRST_VALUE skips the earlier split's NULL for the later split's value.
	if v := accs[2].value(); v.S != "B" {
		t.Errorf("first_value = %#v", v)
	}
	// DISTINCT keeps the last value per rendered key, as the sequential add
	// does.
	if v := accs[3].(*distinctAcc).seen["5"]; v.T != types.Float {
		t.Errorf("distinct kept %#v, want the later split's value", v)
	}
}
