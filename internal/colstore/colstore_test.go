package colstore

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"testing/quick"

	"scoop/internal/sql/types"
)

const decl = "vid string, date string, index double, n int, ok bool"

func sampleRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{
			types.Str("V" + strings.Repeat("0", 3) + string(rune('0'+i%10))),
			types.Str("2015-01-01 00:10:00"),
			types.FloatV(float64(i) * 1.5),
			types.IntV(int64(i)),
			types.BoolV(i%2 == 0),
		}
	}
	return rows
}

func writeFile(t *testing.T, rows []types.Row, groupSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, decl, groupSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := w.WriteRow(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	rows := sampleRows(100)
	file := writeFile(t, rows, 0)
	r, err := NewReader(context.Background(), BytesFetcher(file), int64(len(file)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows() != 100 || r.Groups() != 1 {
		t.Fatalf("rows=%d groups=%d", r.Rows(), r.Groups())
	}
	got, err := r.ReadGroup(context.Background(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("rows = %d", len(got))
	}
	for i := range rows {
		for j := range rows[i] {
			if got[i][j].Compare(rows[i][j]) != 0 {
				t.Fatalf("row %d col %d: %v vs %v", i, j, got[i][j], rows[i][j])
			}
		}
	}
	if r.Schema().Len() != 5 {
		t.Errorf("schema = %v", r.Schema())
	}
}

func TestMultipleRowGroups(t *testing.T) {
	rows := sampleRows(250)
	file := writeFile(t, rows, 100)
	r, err := NewReader(context.Background(), BytesFetcher(file), int64(len(file)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Groups() != 3 {
		t.Fatalf("groups = %d", r.Groups())
	}
	var total int
	for g := 0; g < r.Groups(); g++ {
		part, err := r.ReadGroup(context.Background(), g, []string{"n"})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range part {
			if row[0].I != int64(total) {
				t.Fatalf("group %d: n=%v want %d", g, row[0], total)
			}
			total++
		}
	}
	if total != 250 {
		t.Errorf("total rows = %d", total)
	}
}

func TestColumnPruningFetchesLess(t *testing.T) {
	rows := sampleRows(2000)
	file := writeFile(t, rows, 0)
	count := &countingFetcher{b: file}
	r, err := NewReader(context.Background(), count, int64(len(file)))
	if err != nil {
		t.Fatal(err)
	}
	footerBytes := count.n
	count.n = 0
	if _, err := r.ReadGroup(context.Background(), 0, []string{"n"}); err != nil {
		t.Fatal(err)
	}
	oneCol := count.n
	count.n = 0
	if _, err := r.ReadGroup(context.Background(), 0, nil); err != nil {
		t.Fatal(err)
	}
	allCols := count.n
	if oneCol >= allCols/2 {
		t.Errorf("one column fetched %d bytes, all columns %d", oneCol, allCols)
	}
	if footerBytes == 0 {
		t.Error("footer read not counted")
	}
}

func TestCompression(t *testing.T) {
	// Highly repetitive data must compress well below raw CSV size.
	rows := make([]types.Row, 5000)
	for i := range rows {
		rows[i] = types.Row{
			types.Str("V000001"),
			types.Str("2015-01-01 00:10:00"),
			types.FloatV(42),
			types.IntV(7),
			types.BoolV(true),
		}
	}
	file := writeFile(t, rows, 0)
	csvSize := 5000 * len("V000001,2015-01-01 00:10:00,42,7,true\n")
	if len(file) > csvSize/5 {
		t.Errorf("columnar size %d, csv %d: compression too weak", len(file), csvSize)
	}
}

func TestProjectionOrder(t *testing.T) {
	rows := sampleRows(10)
	file := writeFile(t, rows, 0)
	r, _ := NewReader(context.Background(), BytesFetcher(file), int64(len(file)))
	got, err := r.ReadGroup(context.Background(), 0, []string{"n", "vid"})
	if err != nil {
		t.Fatal(err)
	}
	if got[3][0].I != 3 || !strings.HasPrefix(got[3][1].S, "V") {
		t.Errorf("row = %v", got[3])
	}
}

func TestNullsRoundTrip(t *testing.T) {
	rows := []types.Row{
		{types.NullValue(), types.NullValue(), types.NullValue(), types.NullValue(), types.NullValue()},
		{types.Str("x"), types.Str("y"), types.FloatV(1), types.IntV(2), types.BoolV(false)},
	}
	file := writeFile(t, rows, 0)
	r, _ := NewReader(context.Background(), BytesFetcher(file), int64(len(file)))
	got, err := r.ReadGroup(context.Background(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := range got[0] {
		if !got[0][j].IsNull() {
			t.Errorf("col %d: %v, want NULL", j, got[0][j])
		}
	}
	if got[1][3].I != 2 {
		t.Errorf("row1 = %v", got[1])
	}
}

func TestErrors(t *testing.T) {
	if _, err := NewWriter(&bytes.Buffer{}, "not a schema", 0); err == nil {
		t.Error("bad schema accepted")
	}
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, decl, 0)
	if err := w.WriteRow(types.Row{types.Str("short")}); err == nil {
		t.Error("short row accepted")
	}
	// Corrupt / truncated files.
	rows := sampleRows(5)
	file := writeFile(t, rows, 0)
	if _, err := NewReader(context.Background(), BytesFetcher(file[:8]), 8); err == nil {
		t.Error("truncated file accepted")
	}
	bad := append([]byte{}, file...)
	copy(bad[len(bad)-len(Magic):], "WRONG")
	if _, err := NewReader(context.Background(), BytesFetcher(bad), int64(len(bad))); err == nil {
		t.Error("bad magic accepted")
	}
	r, _ := NewReader(context.Background(), BytesFetcher(file), int64(len(file)))
	if _, err := r.ReadGroup(context.Background(), 99, nil); err == nil {
		t.Error("bad group accepted")
	}
	if _, err := r.ReadGroup(context.Background(), 0, []string{"ghost"}); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := BytesFetcher(file).Fetch(context.Background(), -1, 5); err == nil {
		t.Error("negative fetch accepted")
	}
}

func TestEmptyFile(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, decl, 0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(context.Background(), BytesFetcher(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows() != 0 || r.Groups() != 0 {
		t.Errorf("rows=%d groups=%d", r.Rows(), r.Groups())
	}
}

// Property: string and numeric values of any content round-trip.
func TestValueRoundTripProperty(t *testing.T) {
	f := func(s string, i int64, fl float64) bool {
		rows := []types.Row{{
			types.Str(s), types.Str(""), types.FloatV(fl), types.IntV(i), types.BoolV(i%2 == 0),
		}}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, decl, 0)
		if err != nil {
			return false
		}
		if err := w.WriteRow(rows[0]); err != nil {
			return false
		}
		if err := w.Close(); err != nil {
			return false
		}
		r, err := NewReader(context.Background(), BytesFetcher(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			return false
		}
		got, err := r.ReadGroup(context.Background(), 0, nil)
		if err != nil {
			return false
		}
		sameFloat := got[0][2].F == fl || (got[0][2].F != got[0][2].F && fl != fl)
		return got[0][0].S == s && sameFloat && got[0][3].I == i
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// failWriter errors after n bytes, exercising the writer's error paths.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errFail
	}
	take := len(p)
	if take > f.n {
		take = f.n
	}
	f.n -= take
	if take < len(p) {
		return take, errFail
	}
	return take, nil
}

var errFail = bytes.ErrTooLarge

func TestWriterOutputErrors(t *testing.T) {
	// Fail immediately: NewWriter can't write the magic.
	if _, err := NewWriter(&failWriter{n: 0}, decl, 0); err == nil {
		t.Error("magic write failure not surfaced")
	}
	// Fail during flush/close at several cut points.
	for _, budget := range []int{6, 30, 200} {
		w, err := NewWriter(&failWriter{n: budget}, decl, 0)
		if err != nil {
			continue // failed at magic already
		}
		failed := false
		for _, r := range sampleRows(500) {
			if err := w.WriteRow(r); err != nil {
				failed = true
				break
			}
		}
		if err := w.Close(); err == nil && !failed {
			t.Errorf("budget %d: no error surfaced", budget)
		}
		// Once failed, the writer stays failed.
		if err := w.WriteRow(sampleRows(1)[0]); err == nil && !failed {
			t.Errorf("budget %d: writer recovered after error", budget)
		}
	}
}

type countingFetcher struct {
	b []byte
	n int64
}

func (c *countingFetcher) Fetch(ctx context.Context, off, size int64) ([]byte, error) {
	c.n += size
	return BytesFetcher(c.b).Fetch(ctx, off, size)
}
