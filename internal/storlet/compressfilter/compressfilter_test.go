package compressfilter

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"scoop/internal/pushdown"
	"scoop/internal/storlet"
	"scoop/internal/storlet/csvfilter"
)

func invoke(t *testing.T, opts map[string]string, data string) []byte {
	t.Helper()
	f := New()
	ctx := &storlet.Context{
		Task:     &pushdown.Task{Filter: FilterName, Options: opts},
		RangeEnd: int64(len(data)), ObjectSize: int64(len(data)),
	}
	var out bytes.Buffer
	if err := f.Invoke(ctx, strings.NewReader(data), &out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func TestRoundTrip(t *testing.T) {
	data := strings.Repeat("V000001,2015-01-01 00:10:00,10.5,Rotterdam,NED\n", 200)
	comp := invoke(t, nil, data)
	if len(comp) >= len(data)/3 {
		t.Errorf("compressed %d of %d bytes: too weak", len(comp), len(data))
	}
	r := NewReader(bytes.NewReader(comp))
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != data {
		t.Error("round trip mismatch")
	}
}

func TestLevels(t *testing.T) {
	data := strings.Repeat("abcabcabc", 1000)
	fast := invoke(t, map[string]string{OptLevel: "1"}, data)
	best := invoke(t, map[string]string{OptLevel: "9"}, data)
	if len(best) > len(fast) {
		t.Errorf("level 9 (%d) larger than level 1 (%d)", len(best), len(fast))
	}
}

func TestBadLevel(t *testing.T) {
	f := New()
	for _, lvl := range []string{"0", "10", "-3", "junk"} {
		ctx := &storlet.Context{Task: &pushdown.Task{Filter: FilterName,
			Options: map[string]string{OptLevel: lvl}}, RangeEnd: 1, ObjectSize: 1}
		if err := f.Invoke(ctx, strings.NewReader("x"), io.Discard); err == nil {
			t.Errorf("level %q accepted", lvl)
		}
	}
}

// The §VII pipeline: filter rows at the store, then compress what's left.
func TestPipelineWithCSVFilter(t *testing.T) {
	e := storlet.NewEngine(storlet.Limits{})
	if err := e.Register(csvfilter.New()); err != nil {
		t.Fatal(err)
	}
	if err := e.Register(New()); err != nil {
		t.Fatal(err)
	}
	data := strings.Repeat("V1,2015-01-01,1.5,Rotterdam,NED\nV2,2015-01-01,2.5,Paris,FRA\n", 100)
	tasks := []*pushdown.Task{
		{Filter: csvfilter.FilterName,
			Schema:     "vid string, date string, index double, city string, state string",
			Columns:    []string{"vid", "index"},
			Predicates: []pushdown.Predicate{{Column: "state", Op: pushdown.OpEq, Value: "FRA"}}},
		{Filter: FilterName},
	}
	base := &storlet.Context{RangeEnd: int64(len(data)), ObjectSize: int64(len(data))}
	rc, err := e.RunChain(base, tasks, io.NopCloser(strings.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	comp, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(comp))
	defer r.Close()
	plain, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(plain)), "\n")
	if len(lines) != 100 {
		t.Fatalf("rows = %d", len(lines))
	}
	if lines[0] != "V2,2.5" {
		t.Errorf("row = %q", lines[0])
	}
	if len(comp) >= len(plain) {
		t.Errorf("compression did not help: %d >= %d", len(comp), len(plain))
	}
}
