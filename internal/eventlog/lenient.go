package eventlog

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// This file implements the lenient ingestion mode: dirty real-world exports
// keep malformed rows, events without names, and oversized runs, and the
// strict readers abort on the first such record. With Lenient set, the
// readers instead skip the offending record, count it in a SkipReport, and
// carry on — the repair pipeline downstream is the place that judges whether
// what remains is still matchable.

// ReadOptions configure the log readers.
type ReadOptions struct {
	// Lenient converts malformed records and per-record size-limit
	// violations into skipped-record warnings (see SkipReport) instead of
	// aborting the whole file. Structural failures remain fatal in both
	// modes: a missing CSV header, or an XML/XES document whose syntax
	// breaks mid-stream — a parser cannot resynchronise inside a broken
	// XML document, so there is nothing to leniently skip to.
	Lenient bool
}

// maxSkipWarnings caps the human-readable samples kept in a SkipReport; the
// counters stay exact beyond it.
const maxSkipWarnings = 8

// SkipReport counts the records lenient reading dropped.
type SkipReport struct {
	// Rows counts skipped CSV data rows (wrong column count, malformed
	// quoting, empty event name, oversized line or field).
	Rows int `json:"rows,omitempty"`
	// Events counts skipped XES/XML events (missing, empty or oversized
	// concept:name / name attribute).
	Events int `json:"events,omitempty"`
	// Traces counts traces dropped because every one of their events was
	// skipped.
	Traces int `json:"traces,omitempty"`
	// Oversized counts how many of the skips above were size-cap
	// violations (MaxLineBytes / MaxFieldBytes).
	Oversized int `json:"oversized,omitempty"`
	// Warnings samples up to maxSkipWarnings human-readable skip reasons.
	Warnings []string `json:"warnings,omitempty"`
}

// Total is the number of records (rows, events and traces) skipped.
func (r *SkipReport) Total() int { return r.Rows + r.Events + r.Traces }

func (r *SkipReport) note(format string, args ...any) {
	if len(r.Warnings) < maxSkipWarnings {
		r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
	}
}

// ReadCSVWith is ReadCSV with options. In lenient mode the reader works line
// by line: a row with the wrong column count, broken quoting, an empty event
// name, or an oversized line or field is skipped and counted instead of
// failing the file. One caveat follows from line-based recovery: a quoted
// field spanning multiple physical lines — legal CSV, but never produced by
// WriteCSV — cannot be reassembled leniently and is skipped as malformed.
// The error is non-nil only for structural failures (unreadable input,
// missing case,event header, or no usable rows at all).
//
// Lenient reading splits a plain row (no quote, one comma) in place rather
// than through encoding/csv, and stores each distinct event name read from
// plain rows once: in a document of plain rows, as WriteCSV writes names
// that need no quoting, every occurrence of a name shares one backing array.
func ReadCSVWith(r io.Reader, name string, o ReadOptions) (*Log, *SkipReport, error) {
	if !o.Lenient {
		l, err := ReadCSV(r, name)
		return l, &SkipReport{}, err
	}
	rep := &SkipReport{}
	br := bufio.NewReaderSize(r, 64<<10)
	var lp lineParser
	l := New(name)
	index := make(map[string]int)    // case id -> trace
	names := make(map[string]string) // event name -> its one stored copy
	headerSeen := false
	for lineNo := 1; ; lineNo++ {
		line, oversized, err := readLenientLine(br)
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
			// Blank line; the strict reader skips those silently too.
		case !headerSeen:
			rec, perr := lp.parse(line)
			if perr != nil || len(rec) < 2 || !strings.EqualFold(rec[0], "case") {
				return nil, rep, fmt.Errorf("eventlog: read csv: missing case,event header")
			}
			headerSeen = true
		default:
			if id, ev, ok := splitPlainRow(line); ok {
				// Looked up by string(bytes), a known case or event name
				// costs no allocation.
				i, seen := index[string(id)]
				if !seen {
					i = len(l.Traces)
					index[string(id)] = i
					l.Traces = append(l.Traces, nil)
				}
				name, seen := names[string(ev)]
				if !seen {
					name = string(ev)
					names[name] = name
				}
				l.Traces[i] = append(l.Traces[i], name)
				break
			}
			rec, perr := lp.parse(line)
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

// splitPlainRow splits a data row that encoding/csv would read as two
// fields verbatim, in place: a row without a quote and, once one carriage
// return ending it is dropped as csv.Reader drops it at the end of its
// input, with exactly one comma. The row must also be one ReadCSVWith
// keeps: both fields within MaxFieldBytes and a non-empty event. Every
// other row goes to lineParser, so each skip and its warning come from
// encoding/csv with its line and column positions.
func splitPlainRow(line []byte) (id, ev []byte, ok bool) {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	if bytes.IndexByte(line, '"') >= 0 {
		return nil, nil, false
	}
	i := bytes.IndexByte(line, ',')
	if i < 0 {
		return nil, nil, false
	}
	id, ev = line[:i], line[i+1:]
	if len(ev) == 0 || bytes.IndexByte(ev, ',') >= 0 || len(id) > MaxFieldBytes || len(ev) > MaxFieldBytes {
		return nil, nil, false
	}
	return id, ev, true
}

// readLenientLine reads one physical line, without its newline. A line that
// arrived in one piece is returned as a view into br's buffer, valid until
// the next read; only a line longer than br's buffer is copied, to join its
// pieces. A line longer than MaxLineBytes is discarded to its end and
// reported as oversized instead of poisoning the stream the way the strict
// reader's limitLines wrapper must. err is io.EOF exactly when the input is
// exhausted; the final unterminated line is still returned.
func readLenientLine(br *bufio.Reader) (line []byte, oversized bool, err error) {
	chunk, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		buf := append([]byte(nil), chunk...)
		for err == bufio.ErrBufferFull {
			chunk, err = br.ReadSlice('\n')
			if !oversized {
				buf = append(buf, chunk...)
				if len(buf) > MaxLineBytes {
					oversized = true
					buf = nil
				}
			}
		}
		chunk = buf
	}
	if err != nil && err != io.EOF {
		return nil, oversized, err
	}
	if n := len(chunk); n > 0 && chunk[n-1] == '\n' {
		chunk = chunk[:n-1]
	}
	return chunk, oversized, err
}

// lineParser parses single lines as CSV records with one buffered reader
// for the whole document. csv.NewReader keeps a *bufio.Reader whose buffer
// holds at least 4096 bytes instead of wrapping it, so each record still
// gets a fresh csv.Reader — with the line and column positions and the
// errors of a reader over that line alone — but no buffer and no copy of
// the line.
type lineParser struct {
	src bytes.Reader
	br  *bufio.Reader
}

// parse parses one line. A carriage return ending the line is left to the
// csv.Reader, which drops one before the end of its input; a CRLF line thus
// parses as the strict reader parses it.
func (p *lineParser) parse(line []byte) ([]string, error) {
	p.src.Reset(line)
	if p.br == nil {
		p.br = bufio.NewReaderSize(&p.src, 4096)
	} else {
		p.br.Reset(&p.src)
	}
	cr := csv.NewReader(p.br)
	cr.FieldsPerRecord = -1
	return cr.Read()
}

// ReadXESWith is ReadXES with options. In lenient mode an event missing its
// concept:name (or carrying an empty or oversized one) is skipped and
// counted instead of failing the document, and a trace left empty by such
// skips is dropped and counted. XML syntax errors and oversized tag runs
// abort in both modes — the decoder cannot resynchronise past them.
func ReadXESWith(r io.Reader, o ReadOptions) (*Log, *SkipReport, error) {
	if !o.Lenient {
		l, err := ReadXES(r)
		return l, &SkipReport{}, err
	}
	rep := &SkipReport{}
	var x xesLog
	if err := xml.NewDecoder(limitXMLRuns(r, "xes")).Decode(&x); err != nil {
		return nil, rep, fmt.Errorf("eventlog: read xes: %w", err)
	}
	name, _ := attrValue(x.Attrs, "concept:name")
	l := New(name)
	for ti, xt := range x.Traces {
		t := make(Trace, 0, len(xt.Events))
		for ei, xe := range xt.Events {
			n, ok := attrValue(xe.Attrs, "concept:name")
			switch {
			case !ok || n == "":
				rep.Events++
				rep.note("trace %d event %d: no concept:name, skipped", ti, ei)
			case len(n) > MaxFieldBytes:
				rep.Events++
				rep.Oversized++
				rep.note("trace %d event %d: concept:name longer than %d bytes, skipped", ti, ei, MaxFieldBytes)
			default:
				t = append(t, n)
			}
		}
		switch {
		case len(t) > 0:
			l.Traces = append(l.Traces, t)
		case len(xt.Events) > 0:
			// Every event of the trace was skipped; an empty trace cannot
			// be kept (the log would fail validation downstream).
			rep.Traces++
			rep.note("trace %d: all %d events skipped, trace dropped", ti, len(xt.Events))
		}
	}
	return l, rep, nil
}

// ReadXMLWith is ReadXML with options; the lenient semantics mirror
// ReadXESWith for the minimal XML dialect (the name attribute plays the
// role of concept:name).
func ReadXMLWith(r io.Reader, o ReadOptions) (*Log, *SkipReport, error) {
	if !o.Lenient {
		l, err := ReadXML(r)
		return l, &SkipReport{}, err
	}
	rep := &SkipReport{}
	var x xmlLog
	if err := xml.NewDecoder(limitXMLRuns(r, "xml")).Decode(&x); err != nil {
		return nil, rep, fmt.Errorf("eventlog: read xml: %w", err)
	}
	l := New(x.Name)
	for ti, xt := range x.Traces {
		t := make(Trace, 0, len(xt.Events))
		for ei, xe := range xt.Events {
			switch {
			case xe.Name == "":
				rep.Events++
				rep.note("trace %d event %d: empty name, skipped", ti, ei)
			case len(xe.Name) > MaxFieldBytes:
				rep.Events++
				rep.Oversized++
				rep.note("trace %d event %d: name longer than %d bytes, skipped", ti, ei, MaxFieldBytes)
			default:
				t = append(t, xe.Name)
			}
		}
		if len(t) == 0 && len(xt.Events) > 0 {
			rep.Traces++
			rep.note("trace %d: all %d events skipped, trace dropped", ti, len(xt.Events))
			continue
		}
		// The strict reader keeps originally-empty traces; match it so a
		// clean document reads identically in both modes.
		l.Traces = append(l.Traces, t)
	}
	return l, rep, nil
}
