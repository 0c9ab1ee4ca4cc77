package main

import (
	"reflect"
	"testing"
	"time"
)

// A synthetic three-level trace, times in ns:
//
//	op 1: client [0,100]
//	        transport [10,40]   server [15,35]
//	        transport [50,90]   server [55,95]  (overhangs its parent: clipped at 90)
//	op 2: client [200,260]      transport [210,250]   (no server span)
//	op 3: send_sync [0,7]       (flat kind: its own root)
func TestSelfTimeOnThreeLevelTrace(t *testing.T) {
	in := []span{ // deliberately out of order
		{Kind: kServer, Op: 1, Start: 55, End: 95},
		{Kind: kClient, Op: 2, Start: 200, End: 260},
		{Kind: kTransport, Op: 1, Start: 50, End: 90},
		{Kind: kSendSync, Op: 3, Start: 0, End: 7},
		{Kind: kClient, Op: 1, Start: 0, End: 100},
		{Kind: kServer, Op: 1, Start: 15, End: 35},
		{Kind: kTransport, Op: 2, Start: 210, End: 250},
		{Kind: kTransport, Op: 1, Start: 10, End: 40},
	}
	spans := linkParents(in)

	type link struct {
		kind          spanKind
		start, parent int64
	}
	var got []link
	for _, s := range spans {
		p := int64(-1)
		if s.Parent >= 0 {
			p = spans[s.Parent].Start
		}
		got = append(got, link{s.Kind, s.Start, p})
	}
	want := []link{
		{kClient, 0, -1}, {kTransport, 10, 0}, {kServer, 15, 10}, {kTransport, 50, 0}, {kServer, 55, 50},
		{kClient, 200, -1}, {kTransport, 210, 200},
		{kSendSync, 0, -1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parents (kind, start, parent's start):\n got %v\nwant %v", got, want)
	}

	self := selfTimes(spans)
	for kind, want := range map[spanKind][]float64{
		kClient:    {100 - 30 - 40, 60 - 40}, // duration minus the two transports; minus one
		kTransport: {30 - 20, 40 - 35, 40},   // the second server span is clipped to [55,90]
		kServer:    {20, 40},
		kSendSync:  {7},
	} {
		if !reflect.DeepEqual(self[kind], want) {
			t.Errorf("%s self times = %v, want %v", kindNames[kind], self[kind], want)
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := linkParents([]span{
		{Kind: kClient, Op: 9, Start: 0, End: 100},
		{Kind: kTransport, Op: 9, Start: 10, End: 60},
		{Kind: kTransport, Op: 9, Start: 40, End: 80}, // overlaps the first by 20
	})
	if got := selfTimes(spans)[kClient]; !reflect.DeepEqual(got, []float64{30}) {
		t.Errorf("client self = %v, want [30] (100 minus the union [10,80])", got)
	}
}

func TestTracerDropsSpansUntilSwitchedOn(t *testing.T) {
	var none *tracer
	none.add(kClient, 1, time.Now(), time.Now()) // a nil tracer is the untraced run

	tr := newTracer(8)
	t0 := tr.epoch
	tr.add(kClient, 1, t0, t0.Add(time.Microsecond)) // warm-up: dropped
	tr.start()
	tr.add(kClient, 2, t0.Add(2*time.Microsecond), t0.Add(5*time.Microsecond))
	tr.add(kHandler, 2, t0.Add(3*time.Microsecond), t0.Add(4*time.Microsecond))
	spans := tr.resolve()
	if len(spans) != 2 || spans[0].Op != 2 || spans[1].Parent != 0 {
		t.Fatalf("resolved spans = %+v, want the two spans of op 2 with the handler under the client", spans)
	}
	if self := selfTimes(spans); self[kClient][0] != 2000 || self[kHandler][0] != 1000 {
		t.Errorf("self times = client %v handler %v, want 2000 and 1000 ns", self[kClient], self[kHandler])
	}
}
