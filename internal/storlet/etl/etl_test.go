package etl

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"scoop/internal/pushdown"
	"scoop/internal/storlet"
)

func invokeFilter(t *testing.T, f storlet.Filter, opts map[string]string, data string) string {
	t.Helper()
	ctx := &storlet.Context{
		Task:     &pushdown.Task{Filter: f.Name(), Options: opts},
		RangeEnd: int64(len(data)), ObjectSize: int64(len(data)),
	}
	var out bytes.Buffer
	if err := f.Invoke(ctx, strings.NewReader(data), &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestCleanseTrimsAndDrops(t *testing.T) {
	data := "  V1 , 2015-01-01 ,10.5\n" + // padded: keep, trimmed
		"V2,2015-01-02\n" + // short: drop
		"V3,2015-01-03,7.5,extra\n" + // long: drop
		",2015-01-04,3.0\n" + // empty required field: drop
		"V5,2015-01-05,2.0\n" // clean: keep
	got := invokeFilter(t, NewCleanse(), map[string]string{"columns": "3", "required": "0,1"}, data)
	want := "V1,2015-01-01,10.5\nV5,2015-01-05,2.0\n"
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestCleanseNoRequired(t *testing.T) {
	data := ",b,c\n"
	got := invokeFilter(t, NewCleanse(), map[string]string{"columns": "3"}, data)
	if got != ",b,c\n" {
		t.Errorf("got %q", got)
	}
}

func TestCleanseErrors(t *testing.T) {
	f := NewCleanse()
	cases := []map[string]string{
		nil,                                 // missing columns
		{"columns": "x"},                    // bad columns
		{"columns": "-1"},                   // negative
		{"columns": "3", "required": "9"},   // out of range
		{"columns": "3", "required": "a,b"}, // non-numeric
	}
	for i, opts := range cases {
		ctx := &storlet.Context{
			Task:     &pushdown.Task{Filter: f.Name(), Options: opts},
			RangeEnd: 4, ObjectSize: 4,
		}
		if err := f.Invoke(ctx, strings.NewReader("a,b\n"), io.Discard); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestSplitDateColumn(t *testing.T) {
	data := "V1,2015-01-01 00:10:00,10.5\n"
	got := invokeFilter(t, NewSplit(), map[string]string{"column": "1"}, data)
	if got != "V1,2015-01-01,00:10:00,10.5\n" {
		t.Errorf("got %q", got)
	}
}

func TestSplitMissingPart(t *testing.T) {
	// Value has no separator: second part comes out empty.
	data := "V1,nodate,10.5\n"
	got := invokeFilter(t, NewSplit(), map[string]string{"column": "1"}, data)
	if got != "V1,nodate,,10.5\n" {
		t.Errorf("got %q", got)
	}
}

func TestSplitCustomSepAndParts(t *testing.T) {
	data := "a,x|y|z,b\n"
	got := invokeFilter(t, NewSplit(), map[string]string{"column": "1", "sep": "|", "parts": "3"}, data)
	if got != "a,x,y,z,b\n" {
		t.Errorf("got %q", got)
	}
}

func TestSplitShortRecordPassthrough(t *testing.T) {
	data := "a\n"
	got := invokeFilter(t, NewSplit(), map[string]string{"column": "5"}, data)
	if got != "a\n" {
		t.Errorf("got %q", got)
	}
}

func TestSplitErrors(t *testing.T) {
	f := NewSplit()
	for i, opts := range []map[string]string{
		nil,
		{"column": "x"},
		{"column": "1", "parts": "1"},
		{"column": "1", "parts": "zero"},
	} {
		ctx := &storlet.Context{
			Task:     &pushdown.Task{Filter: f.Name(), Options: opts},
			RangeEnd: 4, ObjectSize: 4,
		}
		if err := f.Invoke(ctx, strings.NewReader("a,b\n"), io.Discard); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

// The upload pipeline the paper describes: cleanse, then split the date.
func TestPutPathPipeline(t *testing.T) {
	e := storlet.NewEngine(storlet.Limits{})
	if err := e.Register(NewCleanse()); err != nil {
		t.Fatal(err)
	}
	if err := e.Register(NewSplit()); err != nil {
		t.Fatal(err)
	}
	data := " V1 ,2015-01-01 00:10:00,10.5\nbadrow\nV2,2015-01-02 06:00:00,4.0\n"
	tasks := []*pushdown.Task{
		{Filter: CleanseName, Options: map[string]string{"columns": "3", "required": "0"}},
		{Filter: SplitName, Options: map[string]string{"column": "1"}},
	}
	base := &storlet.Context{RangeEnd: int64(len(data)), ObjectSize: int64(len(data))}
	rc, err := e.RunChain(base, tasks, io.NopCloser(strings.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	b, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	want := "V1,2015-01-01,00:10:00,10.5\nV2,2015-01-02,06:00:00,4.0\n"
	if string(b) != want {
		t.Errorf("got %q, want %q", b, want)
	}
}

func TestNames(t *testing.T) {
	if NewCleanse().Name() != CleanseName || NewSplit().Name() != SplitName {
		t.Error("filter names")
	}
}
