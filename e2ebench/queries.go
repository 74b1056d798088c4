package main

import (
	"math"
	"math/rand"
	"strings"

	"scoop/internal/experiment"
	"scoop/internal/storlet/aggfilter"
)

// tableName is the table every query reads.
const tableName = "largeMeter"

// query is one distinct request of a workload.
type query struct {
	Name string
	SQL  string
	// Agg marks AggByMeter: in pushdown mode it runs through
	// Scoop.AggregateQuery, otherwise as its SQL twin (SQL).
	Agg bool
}

// aggByMeterSQL is the SQL twin of the AggByMeter aggregation pushdown: the
// same query as the repository's BenchmarkAggregationPushdown.
const aggByMeterSQL = "SELECT vid, sum(index) AS s, count(*) AS n FROM largeMeter GROUP BY vid ORDER BY vid"

var (
	aggGroup = []string{"vid"}
	aggSpecs = []aggfilter.Spec{{Func: aggfilter.Sum, Column: "index"}, {Func: aggfilter.Count, Column: "*"}}
)

// scanQueries are the seven Table I queries plus AggByMeter.
func scanQueries() []query {
	qs := make([]query, 0, len(experiment.GridPocketQueries)+1)
	for _, q := range experiment.GridPocketQueries {
		qs = append(qs, query{Name: q.Name, SQL: q.SQL})
	}
	return append(qs, query{Name: "AggByMeter", SQL: aggByMeterSQL, Agg: true})
}

// dashboardMonths are the month literals the dashboard substitutes for the
// Table I queries' 2015-01, newest first: rank order puts the newest month's
// queries at the head of the Zipf popularity ranking. That order is an
// assumption, not a measurement; README.md gives the hit ratio and tail
// under other orders.
var dashboardMonths = []string{"2015-02", "2015-01", "2014-12"}

// dashboardQueries are the 21 distinct dashboard queries, in popularity rank
// order.
func dashboardQueries() []query {
	var qs []query
	for _, m := range dashboardMonths {
		for _, q := range experiment.GridPocketQueries {
			qs = append(qs, query{
				Name: q.Name + "@" + m,
				SQL:  strings.ReplaceAll(q.SQL, "'2015-01", "'"+m),
			})
		}
	}
	return qs
}

// zipfExponent shapes the dashboard's popularity skew: P(rank k) ∝ 1/k^s.
// 0.8 lies in the range Breslau et al. measured on web proxy request traces
// (0.64–0.83; "Web Caching and Zipf-like Distributions", INFOCOM 1999).
const zipfExponent = 0.8

// zipfWindow is the length of the request windows whose order the seed
// shuffles; see zipfSequence.
const zipfWindow = 64

// zipfSequence returns n query indices over [0, k) whose frequencies follow
// the Zipf law. Smooth weighted round-robin makes every prefix hold each
// query in proportion to its weight, and the seed shuffles the order inside
// consecutive windows. Seeds therefore differ in arrival order — which is
// what the cache reacts to — but not in the query mix, so a metric averaged
// over a run does not move with the luck of the draw.
func zipfSequence(n, k int, rng *rand.Rand) []int {
	w := make([]float64, k)
	var total float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), zipfExponent)
		total += w[i]
	}
	cur := make([]float64, k)
	seq := make([]int, n)
	for j := range seq {
		best := 0
		for i := range cur {
			cur[i] += w[i]
			if cur[i] > cur[best] {
				best = i
			}
		}
		cur[best] -= total
		seq[j] = best
	}
	for lo := 0; lo < n; lo += zipfWindow {
		hi := min(lo+zipfWindow, n)
		rng.Shuffle(hi-lo, func(a, b int) { seq[lo+a], seq[lo+b] = seq[lo+b], seq[lo+a] })
	}
	return seq
}
