package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanKind names a layer boundary the benchmark's wrappers time.
type spanKind uint8

const (
	kPump       spanKind = iota // sender Env After callback: one pacing tick of the pump
	kSenderRx                   // sender HandlePacket (NAKs and looped-back frames)
	kTx                         // sender Multicast, MulticastControl or MulticastBatch
	kRecvShard                  // receiver HandlePacket on a data or parity frame
	kRecvNak                    // receiver HandlePacket on another receiver's NAK
	kRecvCtl                    // receiver HandlePacket on a POLL or FIN
	kRecvTimer                  // receiver Env After callback (NAK slot timer)
	kRecvTx                     // receiver Multicast* (its NAKs)
	kVerify                     // benchmark's byte-exact check inside OnGroup
	kFieldShard                 // field HandlePacket on a data, parity or NC frame
	kFieldCtl                   // field HandlePacket on a POLL, NAK or FIN
	kFieldTimer                 // field Env After callback (representative NAK timer)
	kFieldTx                    // field Multicast* (its NAKs)
	kDraw                       // loss.Population draw called by the field
	numKinds
)

var kindNames = [numKinds]string{
	"sender.pump", "sender.handle", "sender.tx",
	"receiver.handle_shard", "receiver.handle_nak", "receiver.handle_ctl",
	"receiver.timer", "receiver.tx", "bench.verify",
	"field.handle_shard", "field.handle_ctl", "field.timer", "field.tx",
	"loss.draw",
}

// spanAgg accumulates every span of one kind: count, total duration and
// self time (duration minus the time covered by child spans).
type spanAgg struct {
	n     int64
	total time.Duration
	self  time.Duration
}

func (a spanAgg) totalUs() float64 { return float64(a.total) / 1e3 }
func (a spanAgg) selfUs() float64  { return float64(a.self) / 1e3 }

// span is one retained record for the JSON-lines dump.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type openSpan struct {
	id    int32
	kind  spanKind
	start time.Time
	child time.Duration
}

// tracer records nested spans from one serial event loop: every begin/end
// pair must come from callbacks that never run concurrently (one
// udpcast.Conn's engine mutex, or one simnet scheduler). Aggregates cover
// every span; the first keep spans are retained for the dump. A nil
// *tracer records nothing, which is the untraced run.
type tracer struct {
	name    string
	base    time.Time
	agg     [numKinds]spanAgg
	stack   []openSpan
	spans   []span
	next    int32
	dropped int64
}

func newTracer(name string, base time.Time, keep int) *tracer {
	return &tracer{name: name, base: base, spans: make([]span, 0, keep)}
}

func (t *tracer) begin(k spanKind) {
	if t == nil {
		return
	}
	t.next++
	t.stack = append(t.stack, openSpan{id: t.next, kind: k, start: time.Now()})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	now := time.Now()
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := now.Sub(top.start)
	a := &t.agg[top.kind]
	a.n++
	a.total += dur
	a.self += dur - top.child
	var parent int32
	if len(t.stack) > 0 {
		p := &t.stack[len(t.stack)-1]
		p.child += dur
		parent = p.id
	}
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, span{
			ID: top.id, Parent: parent, Name: kindNames[top.kind],
			Start: top.start.Sub(t.base).Nanoseconds(), End: now.Sub(t.base).Nanoseconds(),
		})
	} else {
		t.dropped++
	}
}

// get returns the aggregate of kind k (zero for a nil tracer).
func (t *tracer) get(k spanKind) spanAgg {
	if t == nil {
		return spanAgg{}
	}
	return t.agg[k]
}

// dumpTraces writes every retained span of the tracers as JSON lines to
// path, one object per span tagged with its tracer's name.
func dumpTraces(path string, tracers ...*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		if t == nil {
			continue
		}
		for _, s := range t.spans {
			if err := enc.Encode(struct {
				Tracer string `json:"tracer"`
				span
			}{t.name, s}); err != nil {
				f.Close()
				return err
			}
		}
		if t.dropped > 0 {
			fmt.Fprintf(w, "{\"tracer\":%q,\"dropped_spans\":%d}\n", t.name, t.dropped)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
