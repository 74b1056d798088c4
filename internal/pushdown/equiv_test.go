package pushdown

import (
	"math"
	"strconv"
	"testing"
)

var equivOps = []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpLike, OpIsNull, OpNotNull, OpIn}

// equivValues exercises string comparison, numeric parsing (plain decimals,
// signs, exponents, overflow), LIKE subjects, and degenerate inputs.
var equivValues = []string{
	"", "a", "abc", "Rotterdam", "rot", "Rot%", "%", "_",
	"0", "10", "-3", "+7", "9.5", "0.1", "  42  ", "1e3", "1E-2",
	"NaN", "Inf", "-Inf", "nan", "not-a-number",
	"184467440737095516150", "0.00000000000000000000001",
	"9007199254740993", "12345678901234567890.5",
	`say "hi"`, "a,b", "\x00", "héllo",
}

// TestMatchesBytesEquivalence checks the bound byte-slice kernel against
// the string oracle for every operator over the cross product of raw values,
// literals, numeric flags, and null flags.
func TestMatchesBytesEquivalence(t *testing.T) {
	for _, op := range equivOps {
		for _, raw := range equivValues {
			for _, lit := range equivValues {
				for _, numeric := range []bool{false, true} {
					for _, null := range []bool{false, true} {
						p := Predicate{Column: "c", Op: op, Value: lit, Numeric: numeric}
						if op == OpIn {
							p.Values = []string{lit, "10", "zz"}
						}
						want := p.Matches(raw, null)
						b := Bind(p, 0)
						got := b.Match([]byte(raw), null)
						if got != want {
							t.Fatalf("%s raw=%q lit=%q numeric=%v null=%v: Match=%v, Matches=%v",
								op, raw, lit, numeric, null, got, want)
						}
					}
				}
			}
		}
	}
}

// FuzzMatchesBytesEquivalence fuzzes the same property over arbitrary raw
// bytes and literals.
func FuzzMatchesBytesEquivalence(f *testing.F) {
	f.Add([]byte("Rotterdam"), "Rot%", uint8(6), false, false)
	f.Add([]byte("10.5"), "10", uint8(4), true, false)
	f.Add([]byte(""), "", uint8(7), false, true)
	f.Fuzz(func(t *testing.T, raw []byte, lit string, opIdx uint8, numeric, null bool) {
		op := equivOps[int(opIdx)%len(equivOps)]
		p := Predicate{Column: "c", Op: op, Value: lit, Numeric: numeric}
		if op == OpIn {
			p.Values = []string{lit}
		}
		want := p.Matches(string(raw), null)
		b := Bind(p, 0)
		got := b.Match(raw, null)
		if got != want {
			t.Fatalf("%s raw=%q lit=%q numeric=%v null=%v: Match=%v, Matches=%v",
				op, raw, lit, numeric, null, got, want)
		}
	})
}

// TestParseFloatBytesEquivalence pins parseFloatBytes (and its fastFloat fast
// path), and the literal parse in Bind, to parseFloat: same ok flag,
// bit-identical value.
func TestParseFloatBytesEquivalence(t *testing.T) {
	cases := append([]string{}, equivValues...)
	// Dense sweep of plain decimals around the fast path's mantissa and
	// fractional-digit limits.
	for i := 0; i < 25; i++ {
		cases = append(cases,
			strconv.FormatFloat(math.Pow(10, float64(i)), 'f', -1, 64),
			"0."+string(make([]byte, 0))+strconv.FormatInt(int64(i), 10),
			"1"+string(bytesRepeat('0', i)),
			"0."+string(bytesRepeat('0', i))+"125",
			"-"+strconv.FormatInt(int64(i*7919), 10)+"."+strconv.FormatInt(int64(i), 10),
		)
	}
	for _, s := range cases {
		wantV, wantOK := parseFloat(s)
		gotV, gotOK := parseFloatBytes([]byte(s))
		if gotOK != wantOK {
			t.Fatalf("parseFloatBytes(%q) ok=%v, parseFloat ok=%v", s, gotOK, wantOK)
		}
		if wantOK && math.Float64bits(gotV) != math.Float64bits(wantV) {
			t.Fatalf("parseFloatBytes(%q) = %v (%x), parseFloat = %v (%x)",
				s, gotV, math.Float64bits(gotV), wantV, math.Float64bits(wantV))
		}
		lit := Bind(Predicate{Column: "c", Op: OpEq, Value: s, Numeric: true}, 0).lits[0]
		if lit.isNum != wantOK {
			t.Fatalf("Bind(%q) isNum=%v, parseFloat ok=%v", s, lit.isNum, wantOK)
		}
		if wantOK && math.Float64bits(lit.num) != math.Float64bits(wantV) {
			t.Fatalf("Bind(%q) = %v (%x), parseFloat = %v (%x)",
				s, lit.num, math.Float64bits(lit.num), wantV, math.Float64bits(wantV))
		}
	}
}

// TestFastFloatAgreesWithStrconv asserts that whenever the allocation-free
// fast path accepts an input, its result is bit-identical to
// strconv.ParseFloat — the correctness condition for skipping strconv.
func TestFastFloatAgreesWithStrconv(t *testing.T) {
	cases := []string{
		"0", "1", "-1", "+1", "10.25", "-0", "-0.0", "9007199254740992",
		"900719925474099.1", "0.0000000000000000000001", "1.7976931348623157",
		"123456789.123456789", "000123", "5.", ".5", "-.5",
	}
	for _, s := range cases {
		v, ok := fastFloat([]byte(s))
		if !ok {
			continue // fallback path covers it; nothing to check
		}
		want, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("fastFloat accepted %q but strconv rejects it: %v", s, err)
		}
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("fastFloat(%q) = %v (%x), strconv = %v (%x)",
				s, v, math.Float64bits(v), want, math.Float64bits(want))
		}
	}
}

// FuzzFastFloat fuzzes the same bit-identity property over arbitrary input.
func FuzzFastFloat(f *testing.F) {
	f.Add("10.25")
	f.Add("-0.125")
	f.Add("18446744073709551615")
	f.Add("0.0000000000000000000000001")
	f.Fuzz(func(t *testing.T, s string) {
		v, ok := fastFloat([]byte(s))
		if !ok {
			return
		}
		want, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("fastFloat accepted %q but strconv rejects it: %v", s, err)
		}
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("fastFloat(%q) = %v (%x), strconv = %v (%x)",
				s, v, math.Float64bits(v), want, math.Float64bits(want))
		}
	})
}

func bytesRepeat(b byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}
