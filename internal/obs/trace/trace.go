// Package trace is a Dapper-style distributed tracer for ORTOA
// deployments: spans carry a trace id, a parent span id, a stage name,
// and monotonic timestamps, and finished spans land in a lock-free
// per-process ring buffer exposed as JSON by the /trace admin endpoint.
//
// Span context crosses process boundaries inside the transport frame
// header as a fixed-size field (wire.TraceRefLen bytes) that is present
// in every frame — zeroed when tracing is off — so enabling tracing
// never changes the length of anything the untrusted server observes.
// That property is what lets a security protocol carry tracing at all:
// the adversary's view of a traced read equals its view of a traced
// write equals its view of an untraced access (DESIGN.md §13).
//
// The API is nil-safe end to end: a nil *Tracer starts nil *Spans, and
// every method on a nil Span is a no-op, so uninstrumented deployments
// pay one branch per would-be span and allocate nothing.
package trace

import (
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// A SpanContext identifies one span within one trace — exactly the
// state that crosses the wire. The zero value means "untraced".
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether sc refers to a real trace. Trace id zero is
// reserved for "no trace"; span ids are never zero in valid contexts.
func (sc SpanContext) Valid() bool { return sc.TraceID != 0 }

// A SpanRecord is one finished span as retained in the ring buffer and
// exposed over /trace.
type SpanRecord struct {
	TraceID  uint64
	SpanID   uint64
	ParentID uint64 // 0 for root spans
	Name     string
	Process  string
	Start    time.Time     // wall clock, for display and cross-process ordering
	Duration time.Duration // monotonic, from the span's own clock readings
}

// A Tracer owns one process's span ring buffer. Recording a finished
// span is an atomic cursor increment plus an atomic pointer store; the
// buffer holds the most recent spans and overwrites the oldest, so a
// long-running daemon keeps a bounded recent window for /trace.
type Tracer struct {
	process string
	mask    uint64
	pos     atomic.Uint64
	slots   []atomic.Pointer[SpanRecord]
}

// NewTracer returns a tracer labelled with the given process name
// (e.g. "proxy", "server") retaining at least capacity finished spans.
// Capacity is rounded up to a power of two; values below 16 are raised
// to 16.
func NewTracer(process string, capacity int) *Tracer {
	n := 16
	for n < capacity {
		n <<= 1
	}
	return &Tracer{process: process, mask: uint64(n - 1), slots: make([]atomic.Pointer[SpanRecord], n)}
}

// Process returns the tracer's process label ("" for nil).
func (t *Tracer) Process() string {
	if t == nil {
		return ""
	}
	return t.process
}

// newID draws a random non-zero id. Ids are sampled, not sequential,
// so ids from different processes never collide in practice and the id
// sequence leaks no request ordering.
func newID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// A Span is one live timed stage. End finishes it and records it in
// its tracer's ring buffer. All methods are safe on a nil Span.
type Span struct {
	tracer  *Tracer
	sc      SpanContext
	parent  uint64
	name    string
	start   time.Time
	endOnce atomic.Bool
}

func (t *Tracer) start(sc SpanContext, parent uint64, name string, at time.Time) *Span {
	return &Span{tracer: t, sc: sc, parent: parent, name: name, start: at}
}

// StartRoot begins a new trace with a fresh trace id.
func (t *Tracer) StartRoot(name string) *Span { return t.RootAt(name, time.Now()) }

// RootAt is StartRoot with the start time read by the caller, so one
// clock reading can both start the span and end whatever came before.
func (t *Tracer) RootAt(name string, at time.Time) *Span {
	if t == nil {
		return nil
	}
	return t.start(SpanContext{TraceID: newID(), SpanID: newID()}, 0, name, at)
}

// StartRemote begins a span continuing a trace whose context arrived
// over the wire: same trace id, parented on the sender's span. It
// returns nil for an invalid (untraced) context, so untraced requests
// cost nothing.
func (t *Tracer) StartRemote(sc SpanContext, name string) *Span {
	if t == nil || !sc.Valid() {
		return nil
	}
	return t.start(SpanContext{TraceID: sc.TraceID, SpanID: newID()}, sc.SpanID, name, time.Now())
}

// Remote returns a placeholder for the caller's span whose context
// arrived over the wire: its children join the caller's trace and are
// recorded by t, while the placeholder itself is never recorded. It
// returns nil for an invalid (untraced) context or a nil tracer.
func (t *Tracer) Remote(sc SpanContext) *Span {
	if t == nil || !sc.Valid() {
		return nil
	}
	s := &Span{tracer: t, sc: sc}
	s.endOnce.Store(true)
	return s
}

// Child begins a span within the same trace, parented on s, recorded
// by s's tracer. Returns nil on a nil receiver, so whole call chains
// degrade to no-ops when the root was never started.
func (s *Span) Child(name string) *Span { return s.ChildAt(name, time.Now()) }

// ChildAt is Child with the start time read by the caller.
func (s *Span) ChildAt(name string, at time.Time) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.start(SpanContext{TraceID: s.sc.TraceID, SpanID: newID()}, s.sc.SpanID, name, at)
}

// Context returns the span's wire context (zero for nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// TraceID returns the span's trace id (0 for nil) — the value attached
// to histogram exemplars.
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.sc.TraceID
}

// End finishes the span and publishes its record. End is idempotent;
// only the first call records.
func (s *Span) End() { s.EndAt(time.Now()) }

// EndAt is End with the end time read by the caller: the span's
// duration is exactly at minus its start.
func (s *Span) EndAt(at time.Time) {
	if s == nil || s.endOnce.Swap(true) {
		return
	}
	t := s.tracer
	r := &SpanRecord{
		TraceID:  s.sc.TraceID,
		SpanID:   s.sc.SpanID,
		ParentID: s.parent,
		Name:     s.name,
		Process:  t.process,
		Start:    s.start,
		Duration: at.Sub(s.start),
	}
	t.slots[(t.pos.Add(1)-1)&t.mask].Store(r)
}

// Snapshot returns a copy of every retained span record, unordered.
// It is safe to call concurrently with End.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	out := make([]SpanRecord, 0, len(t.slots))
	for i := range t.slots {
		if r := t.slots[i].Load(); r != nil {
			out = append(out, *r)
		}
	}
	return out
}
