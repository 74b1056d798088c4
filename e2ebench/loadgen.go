package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"scoop/internal/core"
	"scoop/internal/sql/types"
)

// op is one scheduled operation: a query, or (put >= 0) a byte-identical
// re-PUT of dataset object put.
type op struct {
	due time.Duration // offset from the phase start; open loop only
	q   int
	put int
}

// execFn runs distinct query q and returns its rows and metrics.
type execFn func(q int) ([]types.Row, core.Metrics, error)

// putFn re-PUTs dataset object i.
type putFn func(i int) error

// phase accumulates one measured stretch of a workload.
type phase struct {
	mu          sync.Mutex
	lat         []time.Duration // per completed query
	putLat      []time.Duration
	attempted   int
	failed      int
	firstErr    error
	rows        int64
	busy        time.Duration
	computeWall time.Duration
	attempts    int64
	failures    int64
	wall        time.Duration
	// active is the part of wall during which at least one op was in
	// flight: all of it on a closed loop, the busy stretches on the open
	// loop.
	active      time.Duration
	lagMax      time.Duration
	inflightMax int64
	rt          runtimeStats
}

func (p *phase) queries() int { return len(p.lat) }

// recordQuery accounts one query. A query that errors or returns a wrong
// answer counts as failed and contributes no latency sample.
func (p *phase) recordQuery(o oracle, q int, lat time.Duration, rows []types.Row, m core.Metrics, err error) {
	if err == nil {
		if cerr := o.check(q, rows); cerr != nil {
			err = fmt.Errorf("wrong answer: %w", cerr)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if err != nil {
		p.fail(fmt.Errorf("query %d: %w", q, err))
		return
	}
	p.lat = append(p.lat, lat)
	p.rows += m.RowsScanned
	p.busy += m.Compute.BusyTime
	p.computeWall += m.Compute.WallTime
	p.attempts += m.Compute.Attempts
	p.failures += m.Compute.Failures
}

func (p *phase) recordPut(lat time.Duration, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if err != nil {
		p.fail(fmt.Errorf("put: %w", err))
		return
	}
	p.putLat = append(p.putLat, lat)
}

func (p *phase) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// do executes one op and records it in p. A query is timed from when it
// was due; a PUT, a per-layer figure, from when it started.
func do(o oracle, p *phase, run execFn, put putFn, x op, due time.Time) {
	if x.put >= 0 {
		start := time.Now()
		err := put(x.put)
		p.recordPut(time.Since(start), err)
		return
	}
	rows, m, err := run(x.q)
	p.recordQuery(o, x.q, time.Since(due), rows, m, err)
}

// closedLoop runs ops in order with one client, each op sent when the
// previous one returns, until dur has passed at a multiple of unit ops (a
// whole pass of the scan workloads). It wraps around ops if they run out.
func closedLoop(o oracle, ops []op, unit int, dur time.Duration, run execFn, put putFn) *phase {
	p := &phase{inflightMax: 1}
	rt := readRuntime()
	start := time.Now()
	for i := 0; i%unit != 0 || i == 0 || time.Since(start) < dur; i++ {
		do(o, p, run, put, ops[i%len(ops)], time.Now())
	}
	p.wall = time.Since(start)
	p.active = p.wall
	p.rt = readRuntime().since(rt)
	return p
}

// openLoop sends each op at its due time from nproc client goroutines and
// times it from that due time, so a stall delays — and is charged to — every
// request queued behind it. The phase ends when the last op returns. The
// stretches with an op in flight add up to p.active, the time the offered
// load kept the system busy.
func openLoop(o oracle, ops []op, run execFn, put putFn) *phase {
	p := &phase{}
	var next atomic.Int64
	var inflight int64     // guarded by p.mu, like busyFrom
	var busyFrom time.Time // when inflight last rose from 0
	rt := readRuntime()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(ops)) {
					return
				}
				due := start.Add(ops[i].due)
				time.Sleep(time.Until(due))
				now := time.Now()
				p.mu.Lock()
				p.lagMax = max(p.lagMax, now.Sub(due))
				if inflight == 0 {
					busyFrom = now
				}
				inflight++
				p.inflightMax = max(p.inflightMax, inflight)
				p.mu.Unlock()
				do(o, p, run, put, ops[i], due)
				p.mu.Lock()
				if inflight--; inflight == 0 {
					p.active += time.Since(busyFrom)
				}
				p.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.rt = readRuntime().since(rt)
	return p
}

// scanOps is the scan workloads' request stream: passes over all nq
// queries, each pass in a seeded random order.
func scanOps(nq, passes int, rng *rand.Rand) []op {
	ops := make([]op, 0, nq*passes)
	for i := 0; i < passes; i++ {
		for _, q := range rng.Perm(nq) {
			ops = append(ops, op{q: q, put: -1})
		}
	}
	return ops
}

// putEvery makes every putEvery-th dashboard op a re-PUT.
const putEvery = 20

// dashboardOps is the dashboard's stream of n ops at rate ops/s (rate 0:
// all due at once): every putEvery-th op is a re-PUT of the next of objects
// dataset objects, and the rest are Zipf-mixed queries over nq distinct
// queries. The queries are drawn as one sequence, so a seed changes their
// order but not which queries a stream of n ops holds.
func dashboardOps(n, nq, objects int, rate float64, rng *rand.Rand) []op {
	seq := zipfSequence(n-n/putEvery, nq, rng)
	ops := make([]op, n)
	puts := 0
	for i := range ops {
		if (i+1)%putEvery == 0 {
			ops[i] = op{put: puts % objects}
			puts++
		} else {
			ops[i] = op{q: seq[i-puts], put: -1}
		}
		if rate > 0 {
			ops[i].due = time.Duration(float64(i) / rate * float64(time.Second))
		}
	}
	return ops
}
