// Package eventlog models event logs as used in process mining: a log is a
// multiset of traces, and a trace is a finite sequence of events. The package
// also computes the occurrence statistics (normalized node and edge
// frequencies) that dependency graphs are built from, and offers simple CSV
// and XML serialisations so logs can be exchanged with external tools.
package eventlog

import (
	"fmt"
	"sort"
	"strings"
)

// Event is the name (label) of a recorded activity. Two events with the same
// name inside one log denote the same activity; across logs names may be
// opaque and carry no meaning.
type Event = string

// Trace is one process instance: the sequence of events recorded for it.
type Trace []Event

// Clone returns a deep copy of the trace.
func (t Trace) Clone() Trace {
	c := make(Trace, len(t))
	copy(c, t)
	return c
}

// String renders the trace as "<a, b, c>".
func (t Trace) String() string {
	return "<" + strings.Join(t, ", ") + ">"
}

// Contains reports whether event v occurs anywhere in the trace.
func (t Trace) Contains(v Event) bool {
	for _, e := range t {
		if e == v {
			return true
		}
	}
	return false
}

// HasConsecutive reports whether events a and b occur consecutively (a
// immediately followed by b) at least once in the trace.
func (t Trace) HasConsecutive(a, b Event) bool {
	for i := 0; i+1 < len(t); i++ {
		if t[i] == a && t[i+1] == b {
			return true
		}
	}
	return false
}

// Log is a multiset of traces recorded for one process. The zero value is an
// empty log ready for use.
type Log struct {
	Name   string
	Traces []Trace
}

// New returns an empty log with the given name.
func New(name string) *Log {
	return &Log{Name: name}
}

// Append adds a trace to the log.
func (l *Log) Append(t Trace) {
	l.Traces = append(l.Traces, t)
}

// Len returns the number of traces in the log.
func (l *Log) Len() int { return len(l.Traces) }

// Equal reports whether two logs carry the same name and the same traces in
// the same order.
func (l *Log) Equal(o *Log) bool {
	if l.Name != o.Name || len(l.Traces) != len(o.Traces) {
		return false
	}
	for i := range l.Traces {
		if len(l.Traces[i]) != len(o.Traces[i]) {
			return false
		}
		for j := range l.Traces[i] {
			if l.Traces[i][j] != o.Traces[i][j] {
				return false
			}
		}
	}
	return true
}

// Clone returns a deep copy of the log.
func (l *Log) Clone() *Log {
	c := &Log{Name: l.Name, Traces: make([]Trace, len(l.Traces))}
	for i, t := range l.Traces {
		c.Traces[i] = t.Clone()
	}
	return c
}

// Alphabet returns the sorted set of distinct events occurring in the log.
func (l *Log) Alphabet() []Event {
	seen := make(map[Event]bool)
	for _, t := range l.Traces {
		for _, e := range t {
			seen[e] = true
		}
	}
	out := make([]Event, 0, len(seen))
	for e := range seen {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// Rename returns a copy of the log in which every event has been renamed
// through the mapping. Events absent from the mapping keep their name.
func (l *Log) Rename(mapping map[Event]Event) *Log {
	c := l.Clone()
	for _, t := range c.Traces {
		for i, e := range t {
			if n, ok := mapping[e]; ok {
				t[i] = n
			}
		}
	}
	return c
}

// Stats holds the normalized occurrence frequencies of a log: for every
// event the fraction of traces containing it, and for every ordered pair of
// events the fraction of traces in which they occur consecutively at least
// once (Definition 1 of the paper).
type Stats struct {
	// TraceCount is the number of traces the frequencies are normalized by.
	TraceCount int
	// NodeFreq maps each event to the fraction of traces that contain it.
	NodeFreq map[Event]float64
	// EdgeFreq maps consecutive event pairs to the fraction of traces in
	// which the pair occurs consecutively at least once.
	EdgeFreq map[[2]Event]float64
}

// CollectStats scans the log once and returns its occurrence statistics.
// An empty log yields zero-valued statistics and no error; frequencies are
// then all absent.
func CollectStats(l *Log) *Stats {
	s := &Stats{TraceCount: len(l.Traces)}
	if len(l.Traces) == 0 {
		s.NodeFreq = make(map[Event]float64)
		s.EdgeFreq = make(map[[2]Event]float64)
		return s
	}
	// Events are interned to dense ids once per log. A node or edge counts
	// once per trace: its stamp records the last trace (numbered from 1)
	// that counted it, so nothing is cleared between traces.
	type tally struct{ count, stamp int32 }
	ids := make(map[Event]int32)
	var names []Event
	var nodes, edges []tally
	var edgeKeys []uint64
	edgeIDs := make(map[uint64]int32)
	for ti, t := range l.Traces {
		stamp := int32(ti + 1)
		prev := int32(-1)
		for _, e := range t {
			id, ok := ids[e]
			if !ok {
				id = int32(len(names))
				ids[e] = id
				names = append(names, e)
				nodes = append(nodes, tally{})
			}
			if n := &nodes[id]; n.stamp != stamp {
				n.stamp = stamp
				n.count++
			}
			if prev >= 0 {
				key := uint64(prev)<<32 | uint64(id)
				eid, ok := edgeIDs[key]
				if !ok {
					eid = int32(len(edges))
					edgeIDs[key] = eid
					edgeKeys = append(edgeKeys, key)
					edges = append(edges, tally{})
				}
				if et := &edges[eid]; et.stamp != stamp {
					et.stamp = stamp
					et.count++
				}
			}
			prev = id
		}
	}
	n := float64(len(l.Traces))
	s.NodeFreq = make(map[Event]float64, len(names))
	for id, e := range names {
		s.NodeFreq[e] = float64(nodes[id].count) / n
	}
	s.EdgeFreq = make(map[[2]Event]float64, len(edges))
	for eid, key := range edgeKeys {
		s.EdgeFreq[[2]Event{names[key>>32], names[uint32(key)]}] = float64(edges[eid].count) / n
	}
	return s
}

// Validate checks structural sanity of a log: it must contain at least one
// trace, and no trace may be empty or contain an empty event name.
func (l *Log) Validate() error {
	if len(l.Traces) == 0 {
		return fmt.Errorf("eventlog: log %q has no traces", l.Name)
	}
	for i, t := range l.Traces {
		if len(t) == 0 {
			return fmt.Errorf("eventlog: log %q trace %d is empty", l.Name, i)
		}
		for j, e := range t {
			if e == "" {
				return fmt.Errorf("eventlog: log %q trace %d event %d has empty name", l.Name, i, j)
			}
		}
	}
	return nil
}

// MergeConsecutive returns a copy of the log in which every maximal
// consecutive occurrence of the event sequence seq has been replaced by the
// single event merged. It is the log-level realisation of treating a
// composite event as one node.
func (l *Log) MergeConsecutive(seq []Event, merged Event) *Log {
	if len(seq) == 0 {
		return l.Clone()
	}
	out := &Log{Name: l.Name, Traces: make([]Trace, 0, len(l.Traces))}
	for _, t := range l.Traces {
		nt := make(Trace, 0, len(t))
		for i := 0; i < len(t); {
			if matchesAt(t, i, seq) {
				nt = append(nt, merged)
				i += len(seq)
			} else {
				nt = append(nt, t[i])
				i++
			}
		}
		out.Traces = append(out.Traces, nt)
	}
	return out
}

func matchesAt(t Trace, i int, seq []Event) bool {
	if i+len(seq) > len(t) {
		return false
	}
	for j, e := range seq {
		if t[i+j] != e {
			return false
		}
	}
	return true
}
