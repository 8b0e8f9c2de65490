package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestSelfTimeNestedSpans(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 10, End: 30}}, 80},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 50, End: 70}}, 70},
		{"overlapping counted once", []span{{Start: 10, End: 40}, {Start: 30, End: 60}}, 50},
		{"nested inside another", []span{{Start: 10, End: 60}, {Start: 20, End: 30}}, 50},
		{"clipped to parent", []span{{Start: -20, End: 10}, {Start: 90, End: 150}}, 80},
		{"outside parent", []span{{Start: 120, End: 130}}, 100},
		{"unsorted", []span{{Start: 70, End: 80}, {Start: 0, End: 10}}, 80},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSpanStatsSelfAndTransport(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 7, Name: "client.write", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 7, Name: "app.write", Start: 10, End: 90},
		{ID: 3, Parent: 2, Op: 7, Name: "web3.send_raw", Start: 20, End: 50},
		{ID: 4, Parent: 2, Op: 7, Name: "ipfs.add", Start: 60, End: 70},
	}
	st := newSpanStats(spans)
	if got := st.selfMs("app.write") * 1e6; got != 40 {
		t.Fatalf("app self = %vns, want 40", got)
	}
	if got := st.transportMs() * 1e6; got != 20 {
		t.Fatalf("transport = %vns, want 20", got)
	}
	if got := st.meanMs("web3.send_raw") * 1e6; got != 30 {
		t.Fatalf("send_raw = %vns, want 30", got)
	}
}

func TestTraceHandlerParentsChildSpans(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	h := traceHandler(tr, "app.", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := tr.child("web3.call")
		tr.end(s)
	}))
	req := httptest.NewRequest(http.MethodGet, "/api/v1/me", nil)
	req.Header.Set(hdrOp, "42")
	req.Header.Set(hdrSpan, "9")
	req.Header.Set(hdrKind, "read")
	h.ServeHTTP(httptest.NewRecorder(), req)
	spans := tr.snapshot()
	if len(spans) != 2 {
		t.Fatalf("spans = %+v", spans)
	}
	child, server := spans[0], spans[1]
	if server.Name != "app.read" || server.Op != 42 || server.Parent != 9 {
		t.Fatalf("server span = %+v", server)
	}
	if child.Name != "web3.call" || child.Parent != server.ID || child.Op != 42 {
		t.Fatalf("child span = %+v", child)
	}
	tr.on.Store(false)
	if tr.begin("x", 1, 0) != nil {
		t.Fatal("a tracer that is off records nothing")
	}
}

func TestPlanIsDeterministic(t *testing.T) {
	for _, w := range []string{"lifecycle", "rawtx", "reads"} {
		a, b := makePlan(w, 7, 3), makePlan(w, 7, 3)
		if a.digest() != b.digest() {
			t.Errorf("%s: same seed gave different inputs", w)
		}
		if a.digest() == makePlan(w, 8, 3).digest() {
			t.Errorf("%s: different seeds gave the same inputs", w)
		}
	}
}
