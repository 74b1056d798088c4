package csvio

import "bytes"

// Fields is the reference splitter FieldScanner.Scan is checked against: the
// allocating splitter the system used before every CSV consumer moved onto
// FieldScanner, kept verbatim as a test oracle for the equivalence and fuzz
// suites.

// Fields splits a record into fields. Quoted fields ("a,b" style, with ""
// escaping) are supported; the fast path for unquoted records makes no
// copies. dst is reused when non-nil.
func Fields(record []byte, delim byte, dst [][]byte) [][]byte {
	dst = dst[:0]
	if bytes.IndexByte(record, '"') < 0 {
		// Fast path: plain split.
		for {
			i := bytes.IndexByte(record, delim)
			if i < 0 {
				return append(dst, record)
			}
			dst = append(dst, record[:i])
			record = record[i+1:]
		}
	}
	// Quoted path.
	for len(record) >= 0 {
		if len(record) > 0 && record[0] == '"' {
			var field []byte
			i := 1
			for i < len(record) {
				if record[i] == '"' {
					if i+1 < len(record) && record[i+1] == '"' {
						field = append(field, '"')
						i += 2
						continue
					}
					i++
					break
				}
				field = append(field, record[i])
				i++
			}
			dst = append(dst, field)
			if i < len(record) && record[i] == delim {
				record = record[i+1:]
				continue
			}
			return dst
		}
		i := bytes.IndexByte(record, delim)
		if i < 0 {
			return append(dst, record)
		}
		dst = append(dst, record[:i])
		record = record[i+1:]
	}
	return dst
}
