// Custom filter: the "rich active storage layer" of the paper — deploy a
// brand-new pushdown filter into a live object store and invoke it through
// request metadata, without any change to the store itself.
//
// The filter here is a log-grep that also counts matches: a tiny example of
// the "general-purpose code close to the data" the paper argues for beyond
// SQL (EXIF extraction, statistics, compression, ...).
package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"strings"

	"scoop/internal/objectstore"
	"scoop/internal/pushdown"
	"scoop/internal/storlet"
)

// grepFilter emits only lines containing the "pattern" option, prefixed
// with their line number, and a trailing summary line.
type grepFilter struct{}

func (grepFilter) Name() string { return "grep" }

func (grepFilter) Invoke(ctx *storlet.Context, in io.Reader, out io.Writer) error {
	pattern := ctx.Task.Options["pattern"]
	if pattern == "" {
		return fmt.Errorf("grep: missing pattern option")
	}
	sc := bufio.NewScanner(in)
	bw := bufio.NewWriter(out)
	line, matches := 0, 0
	for sc.Scan() {
		line++
		if bytes.Contains(sc.Bytes(), []byte(pattern)) {
			matches++
			fmt.Fprintf(bw, "%d:%s\n", line, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	fmt.Fprintf(bw, "-- %d/%d lines matched %q\n", matches, line, pattern)
	return bw.Flush()
}

func main() {
	ctx := context.Background()
	// A running store: proxies + object nodes + storlet engine.
	cluster, err := objectstore.NewCluster(objectstore.DefaultClusterConfig())
	if err != nil {
		log.Fatal(err)
	}
	client := cluster.Client()
	if err := client.CreateContainer(ctx, "ops", "logs", nil); err != nil {
		log.Fatal(err)
	}

	// Some application logs land in the store "as is".
	logData := strings.Join([]string{
		"2026-07-05T10:00:01 INFO  boot sequence complete",
		"2026-07-05T10:00:09 ERROR meter V000017 checksum mismatch",
		"2026-07-05T10:01:30 INFO  ingest batch 42 ok",
		"2026-07-05T10:02:11 ERROR gateway eu-west timeout",
		"2026-07-05T10:02:48 WARN  retrying gateway eu-west",
		"2026-07-05T10:03:05 ERROR meter V000017 checksum mismatch",
	}, "\n") + "\n"
	if _, err := client.PutObject(ctx, "ops", "logs", "app.log", strings.NewReader(logData), nil); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stored app.log (%d bytes)\n", len(logData))

	// Deploy the filter ON THE FLY — the store keeps serving meanwhile.
	if err := cluster.Engine().Register(grepFilter{}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed filters: %v\n\n", cluster.Engine().Names())

	// Invoke it via request metadata on a normal GET.
	task := &pushdown.Task{Filter: "grep", Options: map[string]string{"pattern": "ERROR"}}
	rc, _, err := client.GetObject(ctx, "ops", "logs", "app.log", objectstore.GetOptions{
		Pushdown: []*pushdown.Task{task},
	})
	if err != nil {
		log.Fatal(err)
	}
	filtered, err := io.ReadAll(rc)
	rc.Close() // flushes the byte accounting
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("GET app.log with grep(ERROR) pushed down:")
	fmt.Print(string(filtered))

	// The store did the work: compare moved bytes.
	ns := cluster.NodeStatsTotal()
	fmt.Printf("\nobject nodes read %d bytes, returned %d bytes (%.0f%% discarded at the store)\n",
		ns.BytesRead, ns.BytesSent, 100*(1-float64(ns.BytesSent)/float64(ns.BytesRead)))
}
