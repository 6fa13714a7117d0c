package obs

import (
	"fmt"
	"strconv"
	"sync"
)

// Field is one structured key/value pair of a trace event. Values are
// pre-formatted strings so an event is immutable and its rendering
// deterministic (F formats the common types canonically).
type Field struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// F builds a Field with canonical formatting: integers in base 10,
// floats in shortest round-trip form, bools as true/false, everything
// else through fmt. Canonical formatting is what makes two runs of the
// same deterministic schedule produce byte-identical event sequences.
func F(key string, v any) Field {
	var s string
	switch x := v.(type) {
	case string:
		s = x
	case int:
		s = strconv.Itoa(x)
	case int64:
		s = strconv.FormatInt(x, 10)
	case uint64:
		s = strconv.FormatUint(x, 10)
	case float64:
		s = strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		s = strconv.FormatBool(x)
	default:
		s = fmt.Sprint(x)
	}
	return Field{Key: key, Value: s}
}

// Event is one entry of the trace ring: a point event, or a span when
// Dur > 0. Clock is whatever timeline the emitter lives on — the
// adaptive loop stamps simulated seconds, an HTTP middleware would stamp
// wall seconds; the tracer never reads a clock itself, which is what
// keeps replayed schedules byte-identical.
type Event struct {
	// Seq is the emission ordinal (monotone from 1, never reset — the
	// ring bounds retention, not numbering).
	Seq uint64 `json:"seq"`
	// Clock is the emitter's timestamp; Dur a span's length on the same
	// timeline (0 = point event).
	Clock float64 `json:"clock"`
	Dur   float64 `json:"dur,omitempty"`
	// Kind classifies the event (e.g. "build", "solve", "drift").
	Kind string `json:"kind"`
	// Fields are the event's structured attributes, in emission order.
	Fields []Field `json:"fields,omitempty"`
}

// String renders the event as one key=value line.
func (e Event) String() string {
	s := fmt.Sprintf("seq=%d clock=%s kind=%s", e.Seq, strconv.FormatFloat(e.Clock, 'g', -1, 64), e.Kind)
	if e.Dur > 0 {
		s += " dur=" + strconv.FormatFloat(e.Dur, 'g', -1, 64)
	}
	for _, f := range e.Fields {
		s += " " + f.Key + "=" + f.Value
	}
	return s
}

// Tracer is a bounded ring of structured events. Writes are mutex-
// serialized (events come from a handful of control-plane sites, not
// per-request hot paths); readers copy. A nil *Tracer no-ops everywhere,
// so an uninstrumented controller pays one nil check per event site.
type Tracer struct {
	mu   sync.Mutex
	ring []Event
	next int    // ring write position
	seq  uint64 // total events ever emitted
}

// DefaultTraceEvents is the ring capacity when NewTracer is given n ≤ 0.
const DefaultTraceEvents = 256

// NewTracer returns a tracer retaining the last n events (n ≤ 0 takes
// DefaultTraceEvents).
func NewTracer(n int) *Tracer {
	if n <= 0 {
		n = DefaultTraceEvents
	}
	return &Tracer{ring: make([]Event, 0, n)}
}

// Event records a point event.
func (t *Tracer) Event(clock float64, kind string, fields ...Field) {
	t.emit(Event{Clock: clock, Kind: kind, Fields: fields})
}

// Span records a completed span of length dur on the emitter's timeline.
func (t *Tracer) Span(clock, dur float64, kind string, fields ...Field) {
	t.emit(Event{Clock: clock, Dur: dur, Kind: kind, Fields: fields})
}

func (t *Tracer) emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.seq++
	e.Seq = t.seq
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, e)
	} else {
		t.ring[t.next] = e
		t.next = (t.next + 1) % cap(t.ring)
	}
	t.mu.Unlock()
}

// Seq returns the total number of events ever emitted (0 on nil).
func (t *Tracer) Seq() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Events returns the retained events, oldest first (nil on nil).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.ring))
	if len(t.ring) < cap(t.ring) {
		out = append(out, t.ring...)
		return out
	}
	out = append(out, t.ring[t.next:]...)
	return append(out, t.ring[:t.next]...)
}

// Recent returns up to n most recent events, oldest first.
func (t *Tracer) Recent(n int) []Event {
	evs := t.Events()
	if n >= 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}
