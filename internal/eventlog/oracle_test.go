package eventlog

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// requireLenientMatchesOracle fails t unless lenient ReadCSVWith returns on
// in what oracleReadCSVLenient returns: the same error, the same log and
// the same SkipReport, warning for warning. It returns the lenient result.
func requireLenientMatchesOracle(t *testing.T, in string) (*Log, *SkipReport, error) {
	t.Helper()
	got, rep, err := ReadCSVWith(strings.NewReader(in), "fuzz", ReadOptions{Lenient: true})
	want, wantRep, werr := oracleReadCSVLenient(strings.NewReader(in), "fuzz")
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("lenient error %v, reference %v", err, werr)
	}
	if err == nil && !got.Equal(want) {
		t.Fatalf("lenient log %q, reference %q", got.Traces, want.Traces)
	}
	if !reflect.DeepEqual(rep, wantRep) {
		t.Fatalf("lenient report %+v, reference %+v", rep, wantRep)
	}
	return got, rep, err
}

// oracleReadCSVLenient is the reference lenient CSV reader: the plain
// design that parses every physical line with a csv.Reader of its own over
// a copy of the line. ReadCSVWith in lenient mode must return exactly what
// it returns — the same log, the same SkipReport, warning for warning —
// however the production reader avoids its per-row allocations.
//
// Line endings follow the strict reader: only the newline is cut off, and a
// carriage return before it is left to the csv.Reader, which drops one at
// the end of its input. A data row ending in "\r\r\n" thus keeps one
// carriage return in its last field, as ReadCSV keeps it.
func oracleReadCSVLenient(r io.Reader, name string) (*Log, *SkipReport, error) {
	rep := &SkipReport{}
	br := bufio.NewReaderSize(r, 64<<10)
	l := New(name)
	index := make(map[string]int)
	headerSeen := false
	for lineNo := 1; ; lineNo++ {
		line, oversized, err := oracleReadLine(br)
		if err != nil && err != io.EOF {
			return nil, rep, fmt.Errorf("eventlog: read csv: %w", err)
		}
		done := err == io.EOF
		switch {
		case oversized:
			rep.Rows++
			rep.Oversized++
			rep.note("line %d: longer than %d bytes, skipped", lineNo, MaxLineBytes)
		case len(line) == 0 || string(line) == "\r":
		case !headerSeen:
			rec, perr := oracleParseCSVLine(line)
			if perr != nil || len(rec) < 2 || !strings.EqualFold(rec[0], "case") {
				return nil, rep, fmt.Errorf("eventlog: read csv: missing case,event header")
			}
			headerSeen = true
		default:
			rec, perr := oracleParseCSVLine(line)
			switch {
			case perr != nil:
				rep.Rows++
				rep.note("line %d: %v, skipped", lineNo, perr)
			case len(rec) != 2:
				rep.Rows++
				rep.note("line %d: %d columns (want 2), skipped", lineNo, len(rec))
			case len(rec[0]) > MaxFieldBytes || len(rec[1]) > MaxFieldBytes:
				rep.Rows++
				rep.Oversized++
				rep.note("line %d: field longer than %d bytes, skipped", lineNo, MaxFieldBytes)
			case rec[1] == "":
				rep.Rows++
				rep.note("line %d: empty event name for case %q, skipped", lineNo, rec[0])
			default:
				id, ev := rec[0], rec[1]
				i, ok := index[id]
				if !ok {
					i = len(l.Traces)
					index[id] = i
					l.Traces = append(l.Traces, nil)
				}
				l.Traces[i] = append(l.Traces[i], ev)
			}
		}
		if done {
			break
		}
	}
	if !headerSeen {
		return nil, rep, fmt.Errorf("eventlog: read csv: empty input")
	}
	if l.Len() == 0 && rep.Total() > 0 {
		return nil, rep, fmt.Errorf("eventlog: read csv: no usable rows (%d records skipped)", rep.Total())
	}
	return l, rep, nil
}

// oracleReadLine reads one physical line into a fresh buffer.
func oracleReadLine(br *bufio.Reader) (line []byte, oversized bool, err error) {
	var buf []byte
	for {
		chunk, rerr := br.ReadSlice('\n')
		if !oversized {
			buf = append(buf, chunk...)
			if len(buf) > MaxLineBytes {
				oversized = true
				buf = nil
			}
		}
		switch rerr {
		case nil:
			return bytes.TrimSuffix(buf, []byte("\n")), oversized, nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			return bytes.TrimSuffix(buf, []byte("\n")), oversized, io.EOF
		default:
			return nil, oversized, rerr
		}
	}
}

// oracleParseCSVLine parses one line with a csv.Reader of its own.
func oracleParseCSVLine(line []byte) ([]string, error) {
	cr := csv.NewReader(strings.NewReader(string(line)))
	cr.FieldsPerRecord = -1
	return cr.Read()
}
