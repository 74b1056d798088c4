//go:build !race

// Allocation-budget regression test for the predicate kernel: evaluating a
// bound predicate on a record field must not allocate, whatever its
// literal. It is excluded under the race detector, whose instrumentation
// allocates; scripts/verify.sh runs it in a separate non-race step
// (go test -run TestAllocBudget).
package pushdown

import "testing"

func TestAllocBudgetBoundMatch(t *testing.T) {
	// Fields are the values each column holds in the meter data. A numeric
	// predicate over text that is not a plain decimal (exponents, "n/a")
	// takes parseFloatBytes's strconv fallback, which allocates by design;
	// only literals are free to be exotic, because Bind parses them once.
	numeric := [][]byte{[]byte("42.25"), []byte(" 7.5 "), []byte("-100"), []byte("")}
	cases := []struct {
		p      Predicate
		fields [][]byte
	}{
		{Predicate{Column: "index", Op: OpGt, Value: "9", Numeric: true}, numeric},
		{Predicate{Column: "index", Op: OpLe, Value: "1e3", Numeric: true}, numeric},
		{Predicate{Column: "index", Op: OpEq, Value: "n/a", Numeric: true}, numeric},
		{Predicate{Column: "index", Op: OpIn, Values: []string{"42.25", "1e3", "n/a"}, Numeric: true}, numeric},
		{Predicate{Column: "date", Op: OpLike, Value: "2015-01%"}, [][]byte{[]byte("2015-01-17 10:20:00"), []byte("2015-11-17 10:20:00")}},
		{Predicate{Column: "state", Op: OpIn, Values: []string{"FRA", "NED"}}, [][]byte{[]byte("NED"), []byte("UKR")}},
	}
	for _, c := range cases {
		b := Bind(c.p, 0)
		avg := testing.AllocsPerRun(100, func() {
			for _, f := range c.fields {
				b.Match(f, false)
			}
		})
		if avg != 0 {
			t.Errorf("%v: %v allocs per pass, want 0", c.p, avg)
		}
	}
}
