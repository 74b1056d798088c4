package objectstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"scoop/internal/pushdown"
	"scoop/internal/storlet"
	"scoop/internal/storlet/csvfilter"
	"scoop/internal/storlet/etl"
)

const meterCSV = "V1,2015-01-01 00:10:00,10.5,Rotterdam,NED\n" +
	"V2,2015-01-01 00:10:00,5.25,Paris,FRA\n" +
	"V3,2015-01-01 00:10:00,1.0,Kyiv,UKR\n"

const meterSchema = "vid string, date string, index double, city string, state string"

func newTestCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := NewCluster(DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Engine().Register(csvfilter.New()); err != nil {
		t.Fatal(err)
	}
	if err := c.Engine().Register(etl.NewCleanse()); err != nil {
		t.Fatal(err)
	}
	return c
}

func mustPut(t *testing.T, cl Client, account, container, object, data string) ObjectInfo {
	t.Helper()
	info, err := cl.PutObject(context.Background(), account, container, object, strings.NewReader(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func readAll(t *testing.T, rc io.ReadCloser) string {
	t.Helper()
	defer rc.Close()
	b, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestPutGetRoundTrip(t *testing.T) {
	c := newTestCluster(t)
	cl := c.Client()
	if err := cl.CreateContainer(context.Background(), "gp", "meters", nil); err != nil {
		t.Fatal(err)
	}
	info := mustPut(t, cl, "gp", "meters", "jan.csv", meterCSV)
	if info.Size != int64(len(meterCSV)) || info.ETag == "" {
		t.Fatalf("info = %+v", info)
	}
	rc, got, err := cl.GetObject(context.Background(), "gp", "meters", "jan.csv", GetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, rc) != meterCSV {
		t.Error("round trip mismatch")
	}
	if got.ETag != info.ETag {
		t.Error("etag mismatch")
	}
}

func TestContainerLifecycle(t *testing.T) {
	c := newTestCluster(t)
	cl := c.Client()
	if _, err := cl.PutObject(context.Background(), "gp", "ghost", "o", strings.NewReader("x"), nil); !errors.Is(err, ErrContainerNotFound) {
		t.Errorf("put to missing container: %v", err)
	}
	if err := cl.CreateContainer(context.Background(), "gp", "meters", nil); err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateContainer(context.Background(), "gp", "meters", nil); !errors.Is(err, ErrContainerExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if err := cl.CreateContainer(context.Background(), "gp", "bad/name", nil); err == nil {
		t.Error("invalid container name accepted")
	}
	if err := cl.CreateContainer(context.Background(), "", "x", nil); err == nil {
		t.Error("empty account accepted")
	}
	if _, err := cl.PutObject(context.Background(), "gp", "meters", "a/b", strings.NewReader("x"), nil); err == nil {
		t.Error("invalid object name accepted")
	}
}

func TestHeadListDelete(t *testing.T) {
	c := newTestCluster(t)
	cl := c.Client()
	_ = cl.CreateContainer(context.Background(), "gp", "meters", nil)
	mustPut(t, cl, "gp", "meters", "jan.csv", meterCSV)
	mustPut(t, cl, "gp", "meters", "feb.csv", meterCSV)
	mustPut(t, cl, "gp", "meters", "other.txt", "hi")

	info, err := cl.HeadObject(context.Background(), "gp", "meters", "jan.csv")
	if err != nil || info.Size != int64(len(meterCSV)) {
		t.Fatalf("head = %+v, %v", info, err)
	}
	list, err := cl.ListObjects(context.Background(), "gp", "meters", "")
	if err != nil || len(list) != 3 {
		t.Fatalf("list = %v, %v", list, err)
	}
	if list[0].Name != "feb.csv" { // sorted
		t.Errorf("list order: %v", list)
	}
	list, _ = cl.ListObjects(context.Background(), "gp", "meters", "j")
	if len(list) != 1 || list[0].Name != "jan.csv" {
		t.Errorf("prefix list = %v", list)
	}
	if err := cl.DeleteObject(context.Background(), "gp", "meters", "jan.csv"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.HeadObject(context.Background(), "gp", "meters", "jan.csv"); !errors.Is(err, ErrNotFound) {
		t.Errorf("head after delete: %v", err)
	}
	if _, _, err := cl.GetObject(context.Background(), "gp", "meters", "jan.csv", GetOptions{}); !errors.Is(err, ErrNotFound) {
		t.Errorf("get after delete: %v", err)
	}
}

func TestRangedGet(t *testing.T) {
	c := newTestCluster(t)
	cl := c.Client()
	_ = cl.CreateContainer(context.Background(), "gp", "meters", nil)
	mustPut(t, cl, "gp", "meters", "jan.csv", meterCSV)
	rc, _, err := cl.GetObject(context.Background(), "gp", "meters", "jan.csv", GetOptions{RangeStart: 3, RangeEnd: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, rc); got != meterCSV[3:10] {
		t.Errorf("range = %q", got)
	}
	// Bad range.
	if _, _, err := cl.GetObject(context.Background(), "gp", "meters", "jan.csv", GetOptions{RangeStart: -1}); err == nil {
		t.Error("negative start accepted")
	}
	if _, _, err := cl.GetObject(context.Background(), "gp", "meters", "jan.csv", GetOptions{RangeStart: 1 << 40}); err == nil {
		t.Error("start past end accepted")
	}
}

func TestPushdownGet(t *testing.T) {
	c := newTestCluster(t)
	cl := c.Client()
	_ = cl.CreateContainer(context.Background(), "gp", "meters", nil)
	mustPut(t, cl, "gp", "meters", "jan.csv", meterCSV)
	task := &pushdown.Task{
		Filter:  csvfilter.FilterName,
		Schema:  meterSchema,
		Columns: []string{"vid"},
		Predicates: []pushdown.Predicate{
			{Column: "state", Op: pushdown.OpLike, Value: "U%"},
		},
	}
	rc, _, err := cl.GetObject(context.Background(), "gp", "meters", "jan.csv", GetOptions{Pushdown: []*pushdown.Task{task}})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(readAll(t, rc)); got != "V3" {
		t.Errorf("got %q", got)
	}
	// Node-side accounting: data was reduced at the object tier.
	ns := c.NodeStatsTotal()
	if ns.FilteredRequests == 0 || ns.BytesSent >= ns.BytesRead {
		t.Errorf("node stats = %+v", ns)
	}
	// The LB saw only filtered bytes.
	if c.LBBytes() >= int64(len(meterCSV)) {
		t.Errorf("LB bytes = %d, want < %d", c.LBBytes(), len(meterCSV))
	}
}

// A GET open to the object's end that the caller closes after a prefix —
// how a baseline split scan reads — charges the node only the bytes pulled.
func TestNodeBytesReadCountsConsumedPrefix(t *testing.T) {
	c := newTestCluster(t)
	cl := c.Client()
	_ = cl.CreateContainer(context.Background(), "gp", "meters", nil)
	const size = 1 << 20
	mustPut(t, cl, "gp", "meters", "big.csv", strings.Repeat("x", size))
	c.ResetStats()

	rc, _, err := cl.GetObject(context.Background(), "gp", "meters", "big.csv", GetOptions{RangeStart: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(rc, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	ns := c.NodeStatsTotal()
	if ns.BytesRead < 4096 || ns.BytesRead > size/4 {
		t.Errorf("node BytesRead = %d after reading 4096 of %d bytes", ns.BytesRead, size-100)
	}
	if ns.BytesRead != ns.BytesSent {
		t.Errorf("unfiltered GET: BytesRead %d != BytesSent %d", ns.BytesRead, ns.BytesSent)
	}
}

func TestPushdownStageProxy(t *testing.T) {
	c := newTestCluster(t)
	cl := c.Client()
	_ = cl.CreateContainer(context.Background(), "gp", "meters", nil)
	mustPut(t, cl, "gp", "meters", "jan.csv", meterCSV)
	task := &pushdown.Task{
		Filter: csvfilter.FilterName, Schema: meterSchema,
		Columns: []string{"vid"},
		Stage:   pushdown.StageProxy,
	}
	rc, _, err := cl.GetObject(context.Background(), "gp", "meters", "jan.csv", GetOptions{Pushdown: []*pushdown.Task{task}})
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, rc)
	if got != "V1\nV2\nV3\n" {
		t.Errorf("got %q", got)
	}
	// Proxy-stage: object node served RAW bytes, proxy reduced them.
	ns := c.NodeStatsTotal()
	if ns.FilteredRequests != 0 {
		t.Errorf("object node ran a filter in proxy staging: %+v", ns)
	}
	ps := c.ProxyStatsTotal()
	if ps.BytesFromNodes != int64(len(meterCSV)) {
		t.Errorf("proxy in-bytes = %d, want %d", ps.BytesFromNodes, len(meterCSV))
	}
	if ps.BytesToClient >= ps.BytesFromNodes {
		t.Errorf("proxy stats = %+v: filtering at proxy should shrink output", ps)
	}
}

func TestPushdownRangedSplitExactlyOnce(t *testing.T) {
	c := newTestCluster(t)
	cl := c.Client()
	_ = cl.CreateContainer(context.Background(), "gp", "meters", nil)
	mustPut(t, cl, "gp", "meters", "jan.csv", meterCSV)
	task := &pushdown.Task{Filter: csvfilter.FilterName, Schema: meterSchema, Columns: []string{"vid"}}
	// Two ranges covering the object: rows must appear exactly once total.
	cut := int64(len(meterCSV) / 2)
	var all []string
	for _, r := range [][2]int64{{0, cut}, {cut, int64(len(meterCSV))}} {
		rc, _, err := cl.GetObject(context.Background(), "gp", "meters", "jan.csv", GetOptions{
			RangeStart: r[0], RangeEnd: r[1], Pushdown: []*pushdown.Task{task},
		})
		if err != nil {
			t.Fatal(err)
		}
		got := strings.TrimSpace(readAll(t, rc))
		if got != "" {
			all = append(all, strings.Split(got, "\n")...)
		}
	}
	if len(all) != 3 {
		t.Fatalf("rows = %v", all)
	}
}

func TestPushdownDisabledByPolicy(t *testing.T) {
	c := newTestCluster(t)
	cl := c.Client()
	_ = cl.CreateContainer(context.Background(), "gp", "bronze", &ContainerPolicy{DisablePushdown: true})
	mustPut(t, cl, "gp", "bronze", "o.csv", meterCSV)
	task := &pushdown.Task{Filter: csvfilter.FilterName, Schema: meterSchema}
	if _, _, err := cl.GetObject(context.Background(), "gp", "bronze", "o.csv", GetOptions{Pushdown: []*pushdown.Task{task}}); err == nil {
		t.Error("pushdown should be rejected by policy")
	}
	// Plain GET still works.
	rc, _, err := cl.GetObject(context.Background(), "gp", "bronze", "o.csv", GetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rc.Close()
}

func TestPutPipelinePolicy(t *testing.T) {
	c := newTestCluster(t)
	cl := c.Client()
	policy := &ContainerPolicy{PutPipeline: []*pushdown.Task{{
		Filter:  etl.CleanseName,
		Options: map[string]string{"columns": "5", "required": "0,1"},
	}}}
	_ = cl.CreateContainer(context.Background(), "gp", "meters", policy)
	dirty := " V1 ,2015-01-01 00:10:00,10.5,Rotterdam,NED\nbadrow\nV2,2015-01-01 00:10:00,5.25,Paris,FRA\n"
	info := mustPut(t, cl, "gp", "meters", "jan.csv", dirty)
	rc, _, err := cl.GetObject(context.Background(), "gp", "meters", "jan.csv", GetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, rc)
	want := "V1,2015-01-01 00:10:00,10.5,Rotterdam,NED\nV2,2015-01-01 00:10:00,5.25,Paris,FRA\n"
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
	if info.Size != int64(len(want)) {
		t.Errorf("stored size = %d, want %d", info.Size, len(want))
	}
}

func TestReplicationAndFailover(t *testing.T) {
	c := newTestCluster(t)
	cl := c.Client()
	_ = cl.CreateContainer(context.Background(), "gp", "meters", nil)
	mustPut(t, cl, "gp", "meters", "jan.csv", meterCSV)
	// Find the replica nodes for this object and take the primary down.
	path := "/gp/meters/jan.csv"
	names, err := c.Ring().NodesFor(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 2 {
		t.Skip("not enough replicas in test cluster")
	}
	for _, n := range c.Nodes() {
		if n.Name() == names[0] {
			n.SetDown(true)
		}
	}
	rc, _, err := cl.GetObject(context.Background(), "gp", "meters", "jan.csv", GetOptions{})
	if err != nil {
		t.Fatalf("failover GET failed: %v", err)
	}
	if readAll(t, rc) != meterCSV {
		t.Error("failover data mismatch")
	}
	// All replicas down -> error.
	for _, n := range c.Nodes() {
		n.SetDown(true)
	}
	if _, _, err := cl.GetObject(context.Background(), "gp", "meters", "jan.csv", GetOptions{}); err == nil {
		t.Error("GET with all nodes down should fail")
	}
	// Puts fail too.
	if _, err := cl.PutObject(context.Background(), "gp", "meters", "x.csv", strings.NewReader("a\n"), nil); err == nil {
		t.Error("PUT with all nodes down should fail")
	}
}

func TestReplicaPlacement(t *testing.T) {
	c := newTestCluster(t)
	cl := c.Client()
	_ = cl.CreateContainer(context.Background(), "gp", "meters", nil)
	mustPut(t, cl, "gp", "meters", "jan.csv", meterCSV)
	// The object exists on exactly the ring-designated nodes.
	path := "/gp/meters/jan.csv"
	names, _ := c.Ring().NodesFor(path)
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	for _, n := range c.Nodes() {
		_, err := n.Head(context.Background(), path)
		if want[n.Name()] && err != nil {
			t.Errorf("replica missing on %s: %v", n.Name(), err)
		}
		if !want[n.Name()] && err == nil {
			t.Errorf("unexpected replica on %s", n.Name())
		}
	}
}

func TestGetUnknownFilter(t *testing.T) {
	c := newTestCluster(t)
	cl := c.Client()
	_ = cl.CreateContainer(context.Background(), "gp", "meters", nil)
	mustPut(t, cl, "gp", "meters", "jan.csv", meterCSV)
	task := &pushdown.Task{Filter: "ghost"}
	if _, _, err := cl.GetObject(context.Background(), "gp", "meters", "jan.csv", GetOptions{Pushdown: []*pushdown.Task{task}}); err == nil {
		t.Error("unknown filter should fail")
	}
	bad := &pushdown.Task{Filter: "csv", Stage: "moon"}
	if _, _, err := cl.GetObject(context.Background(), "gp", "meters", "jan.csv", GetOptions{Pushdown: []*pushdown.Task{bad}}); err == nil {
		t.Error("invalid stage should fail")
	}
}

func TestClusterConfigValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{}); err == nil {
		t.Error("empty config should fail")
	}
	// Defaults fill in.
	c, err := NewCluster(ClusterConfig{Proxies: 1, ObjectNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Ring().Replicas() != 3 {
		t.Errorf("default replicas = %d", c.Ring().Replicas())
	}
}

func TestStatsResetAndNodeList(t *testing.T) {
	c := newTestCluster(t)
	cl := c.Client()
	_ = cl.CreateContainer(context.Background(), "gp", "meters", nil)
	mustPut(t, cl, "gp", "meters", "jan.csv", meterCSV)
	rc, _, err := cl.GetObject(context.Background(), "gp", "meters", "jan.csv", GetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, rc)
	if c.LBBytes() == 0 || c.NodeStatsTotal().Requests == 0 {
		t.Fatal("no traffic recorded")
	}
	c.ResetStats()
	if c.LBBytes() != 0 || c.NodeStatsTotal().Requests != 0 || c.ProxyStatsTotal().Requests != 0 {
		t.Errorf("reset incomplete: lb=%d node=%+v proxy=%+v", c.LBBytes(), c.NodeStatsTotal(), c.ProxyStatsTotal())
	}
	// Node-level listing sees local replicas only.
	path := "/gp/meters/jan.csv"
	names, _ := c.Ring().NodesFor(path)
	for _, n := range c.Nodes() {
		list, err := n.List(context.Background(), "/gp/meters/")
		if err != nil {
			t.Fatal(err)
		}
		isReplica := false
		for _, name := range names {
			if n.Name() == name {
				isReplica = true
			}
		}
		if isReplica && len(list) != 1 {
			t.Errorf("replica %s list = %v", n.Name(), list)
		}
		if !isReplica && len(list) != 0 {
			t.Errorf("non-replica %s list = %v", n.Name(), list)
		}
	}
	// Downed node refuses Head and List.
	c.Nodes()[0].SetDown(true)
	if _, err := c.Nodes()[0].Head(context.Background(), path); err == nil {
		t.Error("down node served Head")
	}
	if _, err := c.Nodes()[0].List(context.Background(), "/"); err == nil {
		t.Error("down node served List")
	}
}

func TestPolicyFromHeaders(t *testing.T) {
	h := http.Header{}
	p, err := policyFromHeaders(h)
	if err != nil || p != nil {
		t.Errorf("empty headers = %v, %v", p, err)
	}
	h.Set(HeaderDisablePushdown, "true")
	p, err = policyFromHeaders(h)
	if err != nil || p == nil || !p.DisablePushdown {
		t.Errorf("disable header = %+v, %v", p, err)
	}
	h.Set(HeaderDisablePushdown, "banana")
	if _, err := policyFromHeaders(h); err == nil {
		t.Error("bad bool accepted")
	}
	h.Set(HeaderDisablePushdown, "false")
	chain, _ := pushdown.EncodeChain([]*pushdown.Task{{Filter: "etl-cleanse", Options: map[string]string{"columns": "3"}}})
	h.Set(HeaderPutPipeline, chain)
	p, err = policyFromHeaders(h)
	if err != nil || p == nil || len(p.PutPipeline) != 1 {
		t.Errorf("pipeline header = %+v, %v", p, err)
	}
	h.Set(HeaderPutPipeline, "garbage")
	if _, err := policyFromHeaders(h); err == nil {
		t.Error("bad pipeline accepted")
	}
}

func TestHTTPClientCustomTransport(t *testing.T) {
	cl := NewHTTPClient("http://example.invalid")
	cl.HTTP = &http.Client{} // custom client path
	if _, err := cl.HeadObject(context.Background(), "a", "c", "o"); err == nil {
		t.Error("unreachable host should fail")
	}
}

func TestMemStoreDirect(t *testing.T) {
	s := NewMemStore()
	info, err := s.Put(context.Background(), ObjectInfo{Account: "a", Container: "c", Name: "o"}, strings.NewReader("hello"))
	if err != nil || info.Size != 5 {
		t.Fatalf("put: %+v, %v", info, err)
	}
	if s.Bytes() != 5 {
		t.Errorf("bytes = %d", s.Bytes())
	}
	if _, _, err := s.Get(context.Background(), "/a/c/missing", 0, 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("get missing: %v", err)
	}
	if _, _, err := s.Get(context.Background(), "/a/c/o", 9, 0); !errors.Is(err, ErrBadRange) {
		t.Errorf("bad range: %v", err)
	}
	rc, _, err := s.Get(context.Background(), "/a/c/o", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(rc)
	if string(b) != "el" {
		t.Errorf("range read = %q", b)
	}
	if _, err := s.Head(context.Background(), "/a/c/o"); err != nil {
		t.Error(err)
	}
	s.Delete(context.Background(), "/a/c/o")
	if _, err := s.Head(context.Background(), "/a/c/o"); !errors.Is(err, ErrNotFound) {
		t.Errorf("head after delete: %v", err)
	}
	s.Delete(context.Background(), "/a/c/o") // idempotent
}

func TestConcurrentGets(t *testing.T) {
	c := newTestCluster(t)
	cl := c.Client()
	_ = cl.CreateContainer(context.Background(), "gp", "meters", nil)
	big := strings.Repeat(meterCSV, 100)
	mustPut(t, cl, "gp", "meters", "big.csv", big)
	task := &pushdown.Task{Filter: csvfilter.FilterName, Schema: meterSchema, Columns: []string{"vid"}}
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func() {
			rc, _, err := cl.GetObject(context.Background(), "gp", "meters", "big.csv", GetOptions{Pushdown: []*pushdown.Task{task}})
			if err != nil {
				done <- err
				return
			}
			b, err := io.ReadAll(rc)
			rc.Close()
			if err == nil && !bytes.HasPrefix(b, []byte("V1\n")) {
				err = fmt.Errorf("bad prefix %q", b[:3])
			}
			done <- err
		}()
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestDeployStorletsFromObjects(t *testing.T) {
	c := newTestCluster(t)
	cl := c.Client()
	// Nothing deployed when the container doesn't exist.
	n, err := DeployStorlets(context.Background(), cl, "gp", c.Engine())
	if err != nil || n != 0 {
		t.Fatalf("empty deploy = %d, %v", n, err)
	}
	// PUT a pipeline manifest as a regular object.
	_ = cl.CreateContainer(context.Background(), "gp", StorletContainer, nil)
	manifest := `{"name": "fra-only", "type": "pipeline", "chain": [
		{"filter": "csv",
		 "schema": "vid string, date string, index double, city string, state string",
		 "columns": ["vid"],
		 "predicates": [{"col": "state", "op": "eq", "val": "FRA"}]}
	]}`
	if _, err := cl.PutObject(context.Background(), "gp", StorletContainer, "fra-only.json", strings.NewReader(manifest), nil); err != nil {
		t.Fatal(err)
	}
	n, err = DeployStorlets(context.Background(), cl, "gp", c.Engine())
	if err != nil || n != 1 {
		t.Fatalf("deploy = %d, %v", n, err)
	}
	// Redeploy is idempotent.
	n, err = DeployStorlets(context.Background(), cl, "gp", c.Engine())
	if err != nil || n != 0 {
		t.Fatalf("redeploy = %d, %v", n, err)
	}
	// The deployed macro works as a pushdown task.
	_ = cl.CreateContainer(context.Background(), "gp", "meters", nil)
	mustPut(t, cl, "gp", "meters", "jan.csv", meterCSV)
	rc, _, err := cl.GetObject(context.Background(), "gp", "meters", "jan.csv", GetOptions{
		Pushdown: []*pushdown.Task{{Filter: "fra-only"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(readAll(t, rc)); got != "V2" {
		t.Errorf("macro output = %q", got)
	}
	// A broken manifest fails the deploy.
	if _, err := cl.PutObject(context.Background(), "gp", StorletContainer, "broken.json", strings.NewReader("not json"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := DeployStorlets(context.Background(), cl, "gp", c.Engine()); err == nil {
		t.Error("broken manifest accepted")
	}
}

func TestDeployFilterOnTheFly(t *testing.T) {
	// The "rich active storage layer": deploy a brand-new filter while the
	// cluster serves traffic, then invoke it via request metadata.
	c := newTestCluster(t)
	cl := c.Client()
	_ = cl.CreateContainer(context.Background(), "gp", "logs", nil)
	mustPut(t, cl, "gp", "logs", "app.log", "INFO ok\nERROR boom\nINFO fine\nERROR bad\n")
	grep := storlet.FilterFunc{
		FilterName: "grep",
		Fn: func(ctx *storlet.Context, in io.Reader, out io.Writer) error {
			b, err := io.ReadAll(in)
			if err != nil {
				return err
			}
			needle := ctx.Task.Options["pattern"]
			for _, line := range strings.Split(string(b), "\n") {
				if strings.Contains(line, needle) {
					fmt.Fprintln(out, line)
				}
			}
			return nil
		},
	}
	if err := c.Engine().Register(grep); err != nil {
		t.Fatal(err)
	}
	task := &pushdown.Task{Filter: "grep", Options: map[string]string{"pattern": "ERROR"}}
	rc, _, err := cl.GetObject(context.Background(), "gp", "logs", "app.log", GetOptions{Pushdown: []*pushdown.Task{task}})
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, rc)
	if got != "ERROR boom\nERROR bad\n" {
		t.Errorf("got %q", got)
	}
}
