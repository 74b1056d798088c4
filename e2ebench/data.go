package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"

	"scoop/internal/meter"
)

// scale is the dataset shape a run generates from its seed, and the
// dashboard's sizing for it.
type scale struct {
	Meters    int
	Days      int
	Interval  time.Duration
	Objects   int
	ChunkSize int64
	// Rate is the dashboard's open-loop rate in ops/s.
	Rate float64
	// CacheBytes is the dashboard's result cache capacity.
	CacheBytes int64
}

// mediumScale is the shape every run of the benchmark uses: 120 meters, 90
// days hourly from 2014-12-01 (so the Table I month predicates select about
// a third of the rows), 8 objects and 512 KiB splits — about 22 MB and 48
// splits. The dashboard runs at about half the capacity measured on a 2-CPU
// host, with a cache of about half its hot set (see README.md).
var mediumScale = scale{
	Meters: 120, Days: 90, Interval: time.Hour, Objects: 8, ChunkSize: 512 << 10,
	Rate: 6, CacheBytes: 24 << 20,
}

// tinyScale keeps the same months and object count at a size the tests run
// in well under a second per query.
var tinyScale = scale{
	Meters: 10, Days: 90, Interval: 12 * time.Hour, Objects: 8, ChunkSize: 8 << 10,
	Rate: 60, CacheBytes: 64 << 10,
}

// dataset is the generated input: the CSV objects a set-up uploads, kept in
// memory so set-up time never includes generation and the dashboard
// workload can re-PUT byte-identical copies. The scan workloads drop
// Objects once set up.
type dataset struct {
	Objects [][]byte
	Names   []string
	Bytes   int64
	Rows    int64
}

// generate renders the meter dataset for seed and cuts it into sc.Objects
// objects on record boundaries. The seed draws every meter's type and
// readings; the meters are spread evenly over the generator's cities (meter
// i in city i mod 10) instead of at random, so each Table I predicate
// selects the same share of rows whatever the seed and a run's numbers do
// not move with the luck of the city draw.
func generate(sc scale, seed int64) (*dataset, error) {
	cfg := meter.DefaultConfig()
	cfg.Meters = sc.Meters
	cfg.Days = sc.Days
	cfg.Interval = sc.Interval
	cfg.Start = time.Date(2014, 12, 1, 0, 0, 0, 0, time.UTC)
	cfg.Seed = seed
	var buf bytes.Buffer
	row := 0
	err := cfg.Generate(func(f []string) error {
		c := meter.Cities[row%cfg.Meters%len(meter.Cities)]
		row++
		f[6], f[7] = c.Name, c.State
		f[8] = strconv.FormatFloat(c.Lat, 'f', 4, 64)
		f[9] = strconv.FormatFloat(c.Long, 'f', 4, 64)
		buf.WriteString(strings.Join(f, ","))
		return buf.WriteByte('\n')
	})
	if err != nil {
		return nil, err
	}
	data := bytes.Clone(buf.Bytes()) // exact size: the dashboard keeps it live
	ds := &dataset{Bytes: int64(len(data)), Rows: cfg.Rows()}
	chunk := len(data) / sc.Objects
	start := 0
	for i := 0; i < sc.Objects && start < len(data); i++ {
		end := len(data)
		if i < sc.Objects-1 {
			end = start + chunk
			for end < len(data) && data[end-1] != '\n' {
				end++
			}
		}
		ds.Objects = append(ds.Objects, data[start:end])
		ds.Names = append(ds.Names, fmt.Sprintf("part-%04d.csv", i))
		start = end
	}
	return ds, nil
}
