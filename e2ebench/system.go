package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"scoop/internal/compute"
	"scoop/internal/core"
	"scoop/internal/datasource"
	"scoop/internal/meter"
	"scoop/internal/metrics"
	"scoop/internal/objectstore"
)

// container holds the dataset's objects.
const container = "meters"

// nproc bounds the benchmark's load: compute workers, closed-loop clients
// and HTTP connections all stay at the host's CPU count.
var nproc = runtime.NumCPU()

// computeConfig pins the compute pool to nproc workers. core.New would
// otherwise default to compute.DefaultConfig's 4 workers, and a pool wider
// than the host only adds scheduling noise to every scan.
func computeConfig() compute.Config {
	return compute.Config{Workers: nproc, Retries: 1}
}

// system is one stood-up deployment.
type system struct {
	// scoop is the system under test.
	scoop *core.Scoop
	// ref is an in-process view of the same store for reference answers
	// (baseline mode never touches the result cache).
	ref *core.Scoop
	// client is what the system under test talks to: the cluster's
	// in-process client, or the HTTP client of the dashboard deployment.
	client  objectstore.Client
	cluster *objectstore.Cluster
	// clientReg counts the HTTP client's retries (nil in-process).
	clientReg *metrics.Registry
	srv       *http.Server
	dataDir   string
}

// setup stands the workload's deployment up through the public API and
// uploads ds: cluster construction, filter registration, container creation,
// dataset PUTs and table registration — what setup_s measures.
func setup(w workload, ds *dataset, sc scale, cacheBytes int64, dataDir string) (*system, error) {
	sys := &system{}
	if w.http {
		if err := sys.startHTTP(sc, cacheBytes, dataDir); err != nil {
			sys.Close()
			return nil, err
		}
	} else {
		s, err := core.New(core.Config{ChunkSize: sc.ChunkSize, Compute: computeConfig()})
		if err != nil {
			return nil, err
		}
		sys.scoop, sys.ref, sys.cluster, sys.client = s, s, s.Cluster(), s.Client()
	}
	if err := sys.upload(ds); err != nil {
		sys.Close()
		return nil, err
	}
	if err := registerTable(sys.scoop); err != nil {
		sys.Close()
		return nil, err
	}
	return sys, nil
}

// startHTTP builds the scoopd-shaped deployment: a disk-backed cluster with
// the result cache, served by objectstore.NewHandler on loopback, and a
// Scoop instance running over objectstore.HTTPClient.
func (sys *system) startHTTP(sc scale, cacheBytes int64, dataDir string) error {
	cc := objectstore.DefaultClusterConfig()
	cc.DataDir = dataDir
	cc.ResultCacheBytes = cacheBytes
	cluster, err := objectstore.NewCluster(cc)
	if err != nil {
		return err
	}
	sys.cluster, sys.dataDir = cluster, dataDir
	if err := core.RegisterStandardFilters(cluster.Engine()); err != nil {
		return err
	}
	handler := objectstore.NewHandler(cluster.Client())
	handler.SetRingInfo(func() (uint64, bool) { return cluster.Ring().Epoch(), cluster.Ring().Migrating() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	sys.srv = &http.Server{Handler: handler, ReadHeaderTimeout: time.Minute}
	go func() { _ = sys.srv.Serve(ln) }()

	hc := objectstore.NewHTTPClient("http://" + ln.Addr().String())
	hc.HTTP = &http.Client{Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}}
	sys.clientReg = metrics.NewRegistry()
	hc.Metrics = sys.clientReg
	sys.client = hc
	sys.scoop, err = core.New(core.Config{Client: hc, ChunkSize: sc.ChunkSize, Compute: computeConfig()})
	return err
}

// addReference attaches the in-process reference view to an HTTP
// deployment. It runs after set-up, outside setup_s.
func (sys *system) addReference(sc scale) error {
	if sys.ref != nil {
		return nil
	}
	ref, err := core.New(core.Config{Client: sys.cluster.Client(), ChunkSize: sc.ChunkSize, Compute: computeConfig()})
	if err != nil {
		return err
	}
	if err := registerTable(ref); err != nil {
		return err
	}
	sys.ref = ref
	return nil
}

func registerTable(s *core.Scoop) error {
	return s.RegisterTable(tableName, container, "", meter.SchemaDecl, datasource.CSVOptions{})
}

// upload creates the container and PUTs every object of ds.
func (sys *system) upload(ds *dataset) error {
	ctx := context.Background()
	err := sys.client.CreateContainer(ctx, sys.scoop.Account(), container, nil)
	if err != nil && !errors.Is(err, objectstore.ErrContainerExists) {
		return err
	}
	for i := range ds.Objects {
		if err := sys.put(ds, i); err != nil {
			return err
		}
	}
	return nil
}

// put stores object i of ds.
func (sys *system) put(ds *dataset, i int) error {
	info, err := sys.client.PutObject(context.Background(), sys.scoop.Account(), container, ds.Names[i], bytes.NewReader(ds.Objects[i]), nil)
	if err != nil {
		return err
	}
	if info.Size != int64(len(ds.Objects[i])) {
		return fmt.Errorf("put %s: stored %d bytes, sent %d", ds.Names[i], info.Size, len(ds.Objects[i]))
	}
	return nil
}

// runOn issues q on s: AggByMeter in pushdown mode through AggregateQuery,
// everything else through Query.
func runOn(ctx context.Context, s *core.Scoop, q query, mode core.Mode) (*core.Result, error) {
	if q.Agg && mode == core.ModePushdown {
		return s.AggregateQuery(tableName, aggGroup, aggSpecs, nil, core.QueryOptions{Context: ctx})
	}
	return s.Query(q.SQL, core.QueryOptions{Mode: mode, Context: ctx})
}

// Close stops the deployment and removes its on-disk state.
func (sys *system) Close() {
	if sys.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = sys.srv.Shutdown(ctx)
		cancel()
	}
	if hc, ok := sys.client.(*objectstore.HTTPClient); ok && hc.HTTP != nil {
		hc.HTTP.CloseIdleConnections()
	}
	if sys.cluster != nil {
		_ = sys.cluster.Close()
	}
	if sys.dataDir != "" {
		_ = os.RemoveAll(sys.dataDir)
	}
}

// dataDirFor names set-up number i's node directory under workdir.
func dataDirFor(workdir string, i int) string {
	return filepath.Join(workdir, fmt.Sprintf("data-%d-%d", os.Getpid(), i))
}
