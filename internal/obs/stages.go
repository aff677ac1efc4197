package obs

import (
	"context"
	"time"

	"ortoa/internal/obs/trace"
)

// MaxStages bounds the stages of one StageSet.
const MaxStages = 4

// Idle is the stage "none": a recorder marked Idle times nothing until
// the next Mark, so work between stages (a retry's recovery step) stays
// out of every stage.
const Idle = -1

// A StageSet declares one timed access path: the name of its root span
// and the names of its stages, in execution order. Each protocol
// declares its sets once, and the experiments read the stage histograms
// and spans back by the same names.
type StageSet struct {
	Root   string
	Stages []string
	// Continues marks a server-side path: its root span only continues
	// a traced request (the context carries the caller's span) and an
	// untraced request is timed but never traced.
	Continues bool
}

// A StageTimer is a StageSet bound to one registry and process: the
// process's tracer plus the metrics each access feeds. The exported
// handles are set by the component's Instrument method before it serves
// traffic; nil handles are skipped. A nil *StageTimer is the
// uninstrumented state: it starts nil recorders, which never read the
// clock.
type StageTimer struct {
	set    *StageSet
	tracer *trace.Tracer

	Stages [MaxStages]*Histogram // one per stage, in set order
	Total  *Histogram            // access latency, root start to end
	Errors *Counter              // accesses that ended in an error
	Slow   *SlowLog              // slowest accesses, with their stage list
}

// Timer binds s to reg and the process proc. A non-empty family exports
// each stage's histogram as family{stage="name"} with the given help
// text. Returns nil on a nil registry.
func (s *StageSet) Timer(reg *Registry, proc, family, help string) *StageTimer {
	if reg == nil {
		return nil
	}
	if len(s.Stages) > MaxStages {
		panic("obs: StageSet " + s.Root + " has more than MaxStages stages")
	}
	t := &StageTimer{set: s}
	if !s.Continues {
		t.tracer = reg.Tracer(proc, 0)
	}
	if family != "" {
		for i, name := range s.Stages {
			t.Stages[i] = reg.Histogram(family+`{stage="`+name+`"}`, help)
		}
	}
	return t
}

// A Recorder times one access through its StageSet. It reads the clock
// once per stage boundary and, from that one reading, ends the running
// stage — observing its histogram and ending its span — and starts the
// next, so the histograms, the spans and the slow-log entry of an
// access carry the same durations. A nil *Recorder — what a nil timer
// starts — does nothing, so the uninstrumented path costs one branch
// per boundary and keeps no recorder state in its stack frames.
type Recorder struct {
	t     *StageTimer
	root  *trace.Span
	span  *trace.Span // the running stage's span
	start time.Time
	last  time.Time // the running stage's start
	cur   int       // the running stage, or Idle
	d     [MaxStages]time.Duration
}

// Start begins one access at stage first (or Idle). The root span is a
// child of ctx's span when there is one, else — unless the set only
// continues traces — a new trace of the timer's tracer. The returned
// context carries the root span.
func (t *StageTimer) Start(ctx context.Context, first int) (*Recorder, context.Context) {
	// The methods inline to one branch for the uninstrumented case and
	// leave the work to an outlined call, so a nil recorder adds no
	// stack to the request goroutines it runs on.
	if t == nil {
		return nil, ctx
	}
	return t.start(ctx, first)
}

func (t *StageTimer) start(ctx context.Context, first int) (*Recorder, context.Context) {
	now := time.Now()
	root := trace.FromContext(ctx).ChildAt(t.set.Root, now)
	if root == nil {
		root = t.tracer.RootAt(t.set.Root, now)
	}
	r := &Recorder{t: t, root: root, start: now, cur: Idle}
	r.open(first, now)
	return r, trace.ContextWith(ctx, root)
}

// Mark ends the running stage and starts stage next (or Idle) at one
// clock reading.
func (r *Recorder) Mark(next int) {
	if r != nil {
		r.mark(next)
	}
}

func (r *Recorder) mark(next int) {
	now := time.Now()
	r.close(now)
	r.open(next, now)
}

// Context returns ctx carrying the running stage's span, for calls the
// stage makes (the rpc stage's transport attempt).
func (r *Recorder) Context(ctx context.Context) context.Context {
	if r == nil {
		return ctx
	}
	return trace.ContextWith(ctx, r.span)
}

// End ends the running stage and the access. A failed access (err !=
// nil) counts in Errors; a successful one feeds Total, with its trace
// id as the exemplar, and is offered to the slow log, which calls
// label for the entry's label only if it retains the access. label must
// name the access without secrets (an encoded key, never a plaintext
// one) and may be nil.
func (r *Recorder) End(err error, label func() string) {
	if r != nil {
		r.end(err, label)
	}
}

func (r *Recorder) end(err error, label func() string) {
	now := time.Now()
	r.close(now)
	r.root.EndAt(now)
	t := r.t
	if err != nil {
		t.Errors.Inc()
		return
	}
	total := now.Sub(r.start)
	t.Total.ObserveExemplar(total, r.root.TraceID())
	if !t.Slow.Worthy(total) {
		return
	}
	e := Trace{At: r.start, Total: total, Stages: make([]Stage, len(t.set.Stages))}
	for i, name := range t.set.Stages {
		e.Stages[i] = Stage{Name: name, D: r.d[i]}
	}
	if label != nil {
		e.Label = label()
	}
	t.Slow.Record(e)
}

func (r *Recorder) close(now time.Time) {
	if r.cur == Idle {
		return
	}
	d := now.Sub(r.last)
	r.d[r.cur] += d
	r.t.Stages[r.cur].Observe(d)
	r.span.EndAt(now)
}

func (r *Recorder) open(next int, now time.Time) {
	r.cur, r.last, r.span = next, now, nil
	if next != Idle {
		r.span = r.root.ChildAt(r.t.set.Stages[next], now)
	}
}
