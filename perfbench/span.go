package main

import (
	"sort"
	"time"
)

// A span is one timed interval the benchmark records around a call into a
// layer of the program. Spans live in memory for the whole run; Parent is
// the index of the span that caused this one (-1 for a root), so a
// layer's self time is its span minus the parts its children cover.
type span struct {
	Kind   spanKind
	Parent int32
	Start  int64 // ns since the recorder's epoch (monotonic)
	End    int64
}

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanRun     spanKind = iota + 1 // sim.System.Run
	spanInject                      // one tick batch of injections
	spanSend                        // one Context.SendToMH / SendMHToMH call
	spanMove                        // one System.Move call
	spanHandler                     // one delivery in the benchmark's sink
	spanDo                          // one netrt System.Do call, caller side
	spanExec                        // the Do closure, on the hub executor
)

// recorder collects spans. It is not safe for concurrent use; each
// goroutine that records spans owns its own recorder.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time, capacity int) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, capacity)}
}

// now is the recorder's clock: nanoseconds since its epoch.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its index.
func (r *recorder) begin(kind spanKind, parent int32) int32 {
	r.spans = append(r.spans, span{Kind: kind, Parent: parent, Start: r.now()})
	return int32(len(r.spans) - 1)
}

// end closes span i.
func (r *recorder) end(i int32) { r.spans[i].End = r.now() }

// add records a span whose bounds the caller already measured.
func (r *recorder) add(kind spanKind, parent int32, start, end int64) {
	r.spans = append(r.spans, span{Kind: kind, Parent: parent, Start: start, End: end})
}

// total sums the durations of every span of kind and counts them.
func total(spans []span, kind spanKind) (sum int64, n int) {
	for _, s := range spans {
		if s.Kind == kind {
			sum += s.End - s.Start
			n++
		}
	}
	return sum, n
}

// selfTime is span id's duration minus the part of its interval covered by
// its direct children. Overlapping children are merged first, so a
// stretch covered twice is subtracted once, and child time outside the
// parent's bounds is ignored.
func selfTime(spans []span, id int32) int64 {
	p := spans[id]
	type iv struct{ a, b int64 }
	var kids []iv
	for _, s := range spans {
		if s.Parent != id {
			continue
		}
		a, b := max(s.Start, p.Start), min(s.End, p.End)
		if a < b {
			kids = append(kids, iv{a, b})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].a < kids[j].a })
	var covered int64
	curA, curB := int64(0), int64(-1)
	for _, k := range kids {
		if k.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = k.a, k.b
			continue
		}
		curB = max(curB, k.b)
	}
	if curB > curA {
		covered += curB - curA
	}
	return p.End - p.Start - covered
}
