// Package pushdown defines the wire representation of a *pushdown task*: the
// piece of metadata the analytics delegator attaches to an object request so
// the object store executes a filter close to the data (paper §IV-A).
//
// A task names the pushdown filter to run (e.g. "csv"), the projection
// (columns to keep) and the selection (simple predicates) extracted by the
// Catalyst-style optimizer, plus free-form options. Tasks are serialized into
// a single HTTP header (base64-encoded JSON) so that the object store needs
// no API changes — exactly how Scoop piggybacks metadata on Swift GETs.
package pushdown

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// HeaderName is the HTTP header carrying a serialized pushdown task on object
// GET/PUT requests.
const HeaderName = "X-Scoop-Pushdown"

// Op is a predicate comparison operator.
type Op string

// Predicate operators supported by pushdown filters.
const (
	OpEq      Op = "eq"
	OpNe      Op = "ne"
	OpLt      Op = "lt"
	OpLe      Op = "le"
	OpGt      Op = "gt"
	OpGe      Op = "ge"
	OpLike    Op = "like"
	OpIsNull  Op = "isnull"
	OpNotNull Op = "notnull"
	OpIn      Op = "in"
)

// Predicate is a simple selection of the form <column> <op> <literal>. Only
// conjunctions of such predicates are pushable; anything richer stays in the
// compute-side residual plan, mirroring Spark's Data Sources filter model.
type Predicate struct {
	// Column is the name of the column the predicate applies to.
	Column string `json:"col"`
	// Op is the comparison operator.
	Op Op `json:"op"`
	// Value is the literal operand rendered as text. For OpIn it is unused
	// and Values holds the list. Numeric predicates set Numeric.
	Value string `json:"val,omitempty"`
	// Values holds the IN list.
	Values []string `json:"vals,omitempty"`
	// Numeric marks that the comparison is numeric rather than lexicographic.
	Numeric bool `json:"num,omitempty"`
}

// String renders the predicate for diagnostics.
func (p Predicate) String() string {
	switch p.Op {
	case OpIsNull:
		return p.Column + " IS NULL"
	case OpNotNull:
		return p.Column + " IS NOT NULL"
	case OpIn:
		return p.Column + " IN (" + strings.Join(p.Values, ",") + ")"
	default:
		return fmt.Sprintf("%s %s %q", p.Column, p.Op, p.Value)
	}
}

// Task is the work delegated to the object store for one object request.
type Task struct {
	// Filter names the registered pushdown filter to execute (e.g. "csv").
	Filter string `json:"filter"`
	// Columns is the projection: names of columns to keep, in output order.
	// Empty means all columns.
	Columns []string `json:"cols,omitempty"`
	// Predicates is the selection: rows must satisfy ALL predicates.
	Predicates []Predicate `json:"preds,omitempty"`
	// Schema declares column names and types ("name type, ..."), needed by
	// filters that operate on raw data without self-describing structure.
	Schema string `json:"schema,omitempty"`
	// Options carries filter-specific parameters (e.g. CSV delimiter).
	Options map[string]string `json:"opts,omitempty"`
	// Stage requests where the filter runs: "object" (default; at the object
	// server, exploiting data locality) or "proxy" (paper §V: staging
	// execution control).
	Stage string `json:"stage,omitempty"`
}

// Stages.
const (
	StageObject = "object"
	StageProxy  = "proxy"
)

// SplitByStage partitions a chain by execution tier, preserving order within
// each tier. The default stage is the object server (data locality). Both the
// proxy and the connector's compute-side fallback use this rule, so a chain
// degraded to local execution runs its stages in the exact order the store
// would have: object-stage filters first, then proxy-stage filters.
func SplitByStage(tasks []*Task) (objectStage, proxyStage []*Task) {
	for _, t := range tasks {
		if t.Stage == StageProxy {
			proxyStage = append(proxyStage, t)
		} else {
			objectStage = append(objectStage, t)
		}
	}
	return objectStage, proxyStage
}

// Encode serializes the task for transport in an HTTP header.
func (t *Task) Encode() (string, error) {
	raw, err := json.Marshal(t)
	if err != nil {
		return "", fmt.Errorf("pushdown: encode: %w", err)
	}
	return base64.StdEncoding.EncodeToString(raw), nil
}

// EncodeChain serializes a pipeline of tasks for transport in one header.
// Tasks run in order: the first filter consumes the object stream, each
// subsequent filter consumes the previous filter's output (paper §IV-B:
// "Scoop is able to execute several pushdown filters on a single request").
func EncodeChain(tasks []*Task) (string, error) {
	parts := make([]string, len(tasks))
	for i, t := range tasks {
		enc, err := t.Encode()
		if err != nil {
			return "", err
		}
		parts[i] = enc
	}
	return strings.Join(parts, ";"), nil
}

// DecodeChain parses a header value holding one or more tasks.
func DecodeChain(s string) ([]*Task, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("pushdown: empty task chain")
	}
	parts := strings.Split(s, ";")
	out := make([]*Task, len(parts))
	for i, p := range parts {
		t, err := Decode(p)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// Decode parses a task previously produced by Encode.
func Decode(s string) (*Task, error) {
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("pushdown: decode: %w", err)
	}
	var t Task
	if err := json.Unmarshal(raw, &t); err != nil {
		return nil, fmt.Errorf("pushdown: decode: %w", err)
	}
	if t.Filter == "" {
		return nil, fmt.Errorf("pushdown: task missing filter name")
	}
	return &t, nil
}

// Validate checks internal consistency of the task.
func (t *Task) Validate() error {
	if t.Filter == "" {
		return fmt.Errorf("pushdown: empty filter name")
	}
	if t.Stage != "" && t.Stage != StageObject && t.Stage != StageProxy {
		return fmt.Errorf("pushdown: bad stage %q", t.Stage)
	}
	for _, p := range t.Predicates {
		switch p.Op {
		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpLike, OpIsNull, OpNotNull, OpIn:
		default:
			return fmt.Errorf("pushdown: bad predicate op %q", p.Op)
		}
		if p.Column == "" {
			return fmt.Errorf("pushdown: predicate missing column")
		}
	}
	return nil
}

// Bound is a Predicate prepared for evaluation: its numeric literals are
// parsed once, at bind time, and Field names the record field it reads.
// Every pushed selection is evaluated through Bound.Match — inside the store
// by the storlets and at the compute side by the data sources — so a
// predicate has one meaning on both sides of the wire. A Bound must come
// from Bind.
type Bound struct {
	Predicate
	// Field is the index of the record field MatchFields evaluates the
	// predicate on. Callers that resolve values by name (JSON documents)
	// pass -1 and call Match directly.
	Field int
	// lits holds the comparison operands: Value, or the IN list.
	lits []literal
}

// literal is one comparison operand with its numeric value parsed once.
type literal struct {
	text string
	num  float64
	// isNum reports whether text parses as a number. A numeric predicate
	// whose literal does not is never satisfied.
	isNum bool
}

// Bind prepares p for evaluation against record field field. Numeric
// literals are parsed with SQL coercion semantics: surrounding space is
// ignored and non-numeric text is NULL.
func Bind(p Predicate, field int) Bound {
	vals := p.Values
	if p.Op != OpIn {
		vals = []string{p.Value}
	}
	b := Bound{Predicate: p, Field: field, lits: make([]literal, len(vals))}
	for i, v := range vals {
		b.lits[i].text = v
		if p.Numeric {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			b.lits[i].num, b.lits[i].isNum = f, err == nil
		}
	}
	return b
}

// MatchFields reports whether a record's fields satisfy every predicate of
// the conjunction. A Field past the end of the record reads as NULL.
func MatchFields(bound []Bound, fields [][]byte) bool {
	for i := range bound {
		b := &bound[i]
		var raw []byte
		null := b.Field >= len(fields)
		if !null {
			raw = fields[b.Field]
		}
		if !b.Match(raw, null) {
			return false
		}
	}
	return true
}

// Match evaluates the predicate against one raw field value with SQL
// semantics: comparisons against NULL are not satisfied (except IS NULL),
// and an empty field counts as NULL for IS [NOT] NULL. Numeric predicates
// compare as float64 and are never satisfied by a field that is not a
// number; the others compare bytes.
//
//scoop:hotpath
func (b *Bound) Match(raw []byte, null bool) bool {
	switch b.Op {
	case OpIsNull:
		return null || len(raw) == 0
	case OpNotNull:
		return !null && len(raw) != 0
	}
	if null {
		return false
	}
	switch b.Op {
	case OpLike:
		return LikeMatch(raw, b.Value)
	case OpIn:
		for i := range b.lits {
			if cmp, ok := b.compare(raw, &b.lits[i]); ok && cmp == 0 {
				return true
			}
		}
		return false
	}
	cmp, ok := b.compare(raw, &b.lits[0])
	if !ok {
		return false
	}
	switch b.Op {
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

// compare orders raw against lit; ok is false when a numeric comparison
// has a non-numeric side.
func (b *Bound) compare(raw []byte, lit *literal) (cmp int, ok bool) {
	if !b.Numeric {
		return compareBytesString(raw, lit.text), true
	}
	if !lit.isNum {
		return 0, false
	}
	a, ok := parseFloatBytes(raw)
	if !ok {
		return 0, false
	}
	switch {
	case a < lit.num:
		return -1, true
	case a > lit.num:
		return 1, true
	}
	return 0, true
}

// compareBytesString is bytes.Compare with a string on the right, avoiding a
// conversion allocation.
func compareBytesString(b []byte, s string) int {
	n := min(len(b), len(s))
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(b) < len(s):
		return -1
	case len(b) > len(s):
		return 1
	}
	return 0
}

// parseFloatBytes parses a float from a raw field without allocating for the
// plain-decimal shapes that dominate CSV numerics. The fallback conversion
// allocates (strconv.ParseFloat retains its argument in errors), but only
// for exotic syntax — exponents, hex floats, inf/NaN, >19-digit mantissas.
// The ok flag and value match strconv.ParseFloat over the trimmed field —
// the parse Bind applies to literals — so both sides of a comparison agree.
func parseFloatBytes(b []byte) (float64, bool) {
	b = bytes.TrimSpace(b)
	if len(b) == 0 {
		return 0, false
	}
	if f, ok := fastFloat(b); ok {
		return f, true
	}
	//lint:ignore allocfree the string([]byte) conversion and strconv fallback only run for exotic float syntax fastFloat rejects; plain-decimal records never reach this line
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// pow10 holds the exactly-representable powers of ten (10^22 is the largest).
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// fastFloat parses [+-]?digits[.digits] when the mantissa fits in 53 bits
// and the fractional exponent stays within the exact pow10 table — the
// regime where one float division yields the correctly-rounded result, which
// is also strconv.ParseFloat's own exact fast path, so results are
// bit-identical. Anything else reports ok=false for the caller to fall back.
func fastFloat(b []byte) (float64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	i, neg := 0, false
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		i++
	}
	var mant uint64
	frac, sawDot, sawDigit := 0, false, false
	for ; i < len(b); i++ {
		c := b[i]
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

// LikeMatch implements SQL LIKE: '%' matches any run (including empty),
// '_' matches exactly one byte. Matching is case-sensitive, as in Spark SQL.
// It is the system's one LIKE: the storage-side filters reach it through
// Bound.Match and the SQL engine through expr.LikeMatch. The subject is a
// byte slice so filters match raw fields without a string conversion.
func LikeMatch(s []byte, p string) bool {
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
