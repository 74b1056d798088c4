package pushdown

import (
	"strconv"
	"strings"
)

// The string predicate evaluator below is the reference the byte kernel
// (Bound.Match) is checked against: it is the evaluator the system used
// before storage and compute shared one kernel, kept verbatim as a test
// oracle for the equivalence and fuzz suites.

// Matches evaluates the predicate against a single value. The caller resolves
// the column to the value; NULL is represented by ok=false from the resolver.
// It implements SQL semantics: comparisons against NULL are not satisfied
// (except IS NULL).
func (p Predicate) Matches(raw string, null bool) bool {
	switch p.Op {
	case OpIsNull:
		return null || raw == ""
	case OpNotNull:
		return !null && raw != ""
	}
	if null {
		return false
	}
	if p.Op == OpIn {
		for _, v := range p.Values {
			if matchOne(OpEq, raw, v, p.Numeric) {
				return true
			}
		}
		return false
	}
	return matchOne(p.Op, raw, p.Value, p.Numeric)
}

func matchOne(op Op, raw, lit string, numeric bool) bool {
	if op == OpLike {
		return likeMatch(raw, lit)
	}
	var cmp int
	if numeric {
		a, aok := parseFloat(raw)
		b, bok := parseFloat(lit)
		if !aok || !bok {
			return false // non-numeric field never satisfies a numeric predicate
		}
		switch {
		case a < b:
			cmp = -1
		case a > b:
			cmp = 1
		}
	} else {
		cmp = strings.Compare(raw, lit)
	}
	switch op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	}
	return false
}

// parseFloat parses a numeric operand with SQL coercion semantics (leading/
// trailing space ignored, non-numeric text is NULL), matching what
// types.Coerce(s, types.Float) used to produce here — without pulling the SQL
// engine's Value box into the predicate hot path. fastFloatString handles the
// plain-decimal shapes that dominate both CSV fields and predicate literals
// allocation-free; only exotic syntax (exponents, hex floats, inf/NaN,
// >19-digit mantissas) falls back to strconv.
func parseFloat(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	if len(s) == 0 {
		return 0, false
	}
	if f, ok := fastFloatString(s); ok {
		return f, true
	}
	//lint:ignore allocfree strconv.ParseFloat only allocates on its error path (*strconv.NumError), reached once per non-numeric exotic literal, not per plain-decimal record — fastFloatString above absorbs those
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// fastFloatString is fastFloat over a string, duplicated rather than
// converted (like likeMatch/likeMatchBytes) so neither side of the predicate
// evaluator pays a conversion allocation. Keep the two in lockstep — the
// bit-identity tests cover both through parseFloat/parseFloatBytes.
func fastFloatString(s string) (float64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	i, neg := 0, false
	if s[0] == '+' || s[0] == '-' {
		neg = s[0] == '-'
		i++
	}
	var mant uint64
	frac, sawDot, sawDigit := 0, false, false
	for ; i < len(s); i++ {
		c := s[i]
		if c == '.' {
			if sawDot {
				return 0, false
			}
			sawDot = true
			continue
		}
		if c < '0' || c > '9' {
			return 0, false
		}
		sawDigit = true
		if mant >= 1<<53/10+1 {
			return 0, false // mantissa may leave the exact-representation range
		}
		mant = mant*10 + uint64(c-'0')
		if sawDot {
			frac++
		}
	}
	if !sawDigit || mant >= 1<<53 || frac >= len(pow10) {
		return 0, false
	}
	f := float64(mant) / pow10[frac]
	if neg {
		f = -f
	}
	return f, true
}

// likeMatch duplicates expr.LikeMatch so the storage-side filter code does
// not depend on the SQL engine (the paper's CSVStorlet is a standalone
// artifact deployed into the store).
func likeMatch(s, p string) bool {
	var si, pi int
	star, sBack := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star = pi
			sBack = si
			pi++
		case star >= 0:
			pi = star + 1
			sBack++
			si = sBack
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}
