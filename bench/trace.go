package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one operation (a ctl op, a
// journey cycle, a fleet or sim pass) share Trace; Parent is the span that
// caused this one, 0 for a root.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int32  `json:"span"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// count is a quantity recorded at a span's boundary (bytes, writes,
// allocations, events).
type count struct {
	Trace int64  `json:"trace"`
	Span  int32  `json:"span"`
	Count string `json:"count"`
	Value int64  `json:"value"`
}

// tracer keeps spans in memory until the window closes. A nil *tracer is
// the untraced run: workloads test for nil before recording anything.
type tracer struct {
	spans  []span
	counts []count
}

// epoch is the zero of every span and socket timestamp in the process.
var epoch = time.Now()

// now is the current time on the span timeline.
func now() int64 { return int64(time.Since(epoch)) }

// add records a finished span and returns its id.
func (t *tracer) add(trace int64, parent int32, name string, start, end int64) int32 {
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

func (t *tracer) count(trace int64, span int32, name string, v int64) {
	t.counts = append(t.counts, count{Trace: trace, Span: span, Count: name, Value: v})
}

// traceFileLines caps a trace file: a ten-second ctl_lifecycle window
// records over a million spans, and the per-layer numbers are computed
// from memory, so the file only needs enough whole traces to read by eye.
const traceFileLines = 100_000

// write stores the first traceFileLines spans, cut at a trace boundary, and
// the counts of the same traces, as JSON lines.
func (t *tracer) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("bench: trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: trace file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("bench: closing trace file: %w", cerr)
		}
	}()
	n := len(t.spans)
	if n > traceFileLines {
		n = traceFileLines
		for n > 0 && t.spans[n].Trace == t.spans[n-1].Trace {
			n--
		}
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	lastTrace := int64(-1)
	for _, s := range t.spans[:n] {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("bench: writing span: %w", err)
		}
		lastTrace = s.Trace
	}
	for _, c := range t.counts {
		if c.Trace > lastTrace {
			break
		}
		if err := enc.Encode(c); err != nil {
			return fmt.Errorf("bench: writing count: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("bench: flushing trace file: %w", err)
	}
	return nil
}

// connStats is what a probed connection saw since the last reset. The
// owning load loop resets it before an operation and reads it after; the
// other end of the socket writes it from the server goroutine, hence the
// atomics.
type connStats struct {
	writes, bytesOut, bytesIn atomic.Int64

	lastWriteEnd, firstReadEnd atomic.Int64
}

func (s *connStats) reset() {
	s.lastWriteEnd.Store(0)
	s.firstReadEnd.Store(0)
}

// wire is the Write calls and bytes sent so far by both ends of a socket.
func wire(a, b *connStats) (writes, bytes int64) {
	return a.writes.Load() + b.writes.Load(), a.bytesOut.Load() + b.bytesOut.Load()
}

// probeConn timestamps and counts the reads and writes of one side of a
// socket: the only way to see, from outside the package, when a request
// reached the server and when its reply left.
type probeConn struct {
	net.Conn
	s *connStats
}

func (c probeConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.s.lastWriteEnd.Store(now())
	c.s.writes.Add(1)
	c.s.bytesOut.Add(int64(n))
	return n, err
}

func (c probeConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.s.firstReadEnd.CompareAndSwap(0, now())
		c.s.bytesIn.Add(int64(n))
	}
	return n, err
}

// probeListener hands every accepted connection the same connStats; the
// benchmark opens one connection per listener.
type probeListener struct {
	net.Listener
	s *connStats
}

func (l probeListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return probeConn{Conn: c, s: l.s}, nil
}
