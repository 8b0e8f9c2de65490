package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
	"legalchain/internal/ipfs"
	"legalchain/internal/web3"
)

// Headers a client sets so server-side spans join the client's
// operation: the operation id and the client span that caused them.
const (
	hdrOp   = "X-Bench-Op"
	hdrSpan = "X-Bench-Span"
	hdrKind = "X-Bench-Kind"
)

// span is one timed call at a layer boundary. Spans of one client
// operation share Op; Parent is the span that caused this one.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the tracer's epoch
	End    int64  `json:"end"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory while on. Server-side wrappers find
// their parent through the goroutine that serves the request: the app
// and rpc handlers call the backend and store synchronously.
type tracer struct {
	on     atomic.Bool
	epoch  time.Time
	nextID atomic.Int64
	nextOp atomic.Int64

	mu    sync.Mutex
	spans []span

	cur sync.Map // goroutine id -> *span open on it (server side)
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span; a nil tracer or one that is off returns nil.
func (t *tracer) begin(name string, op, parent int64) *span {
	if t == nil || !t.on.Load() {
		return nil
	}
	return &span{ID: t.nextID.Add(1), Parent: parent, Op: op, Name: name, Start: t.now()}
}

func (t *tracer) end(s *span) {
	if s == nil {
		return
	}
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

// child opens a span under whatever server span is open on this
// goroutine.
func (t *tracer) child(name string) *span {
	if t == nil || !t.on.Load() {
		return nil
	}
	var op, parent int64
	if p, ok := t.cur.Load(goid()); ok {
		ps := p.(*span)
		op, parent = ps.Op, ps.ID
	}
	return t.begin(name, op, parent)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile dumps every span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goid parses the current goroutine's id from its stack header.
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

// selfTime is parent's duration minus the part of it that its
// children cover; overlapping children are counted once.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.a < end {
			v.a = end
		}
		if v.b > v.a {
			covered += v.b - v.a
			end = v.b
		}
	}
	return parent.dur() - covered
}

// traceHandler wraps a server handler: each request becomes a span
// named prefix+kind, parented to the client span named in its headers
// and registered on the serving goroutine for child spans.
func traceHandler(t *tracer, prefix string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, _ := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		s := t.begin(prefix+r.Header.Get(hdrKind), op, parent)
		if s == nil {
			next.ServeHTTP(w, r)
			return
		}
		g := goid()
		t.cur.Store(g, s)
		next.ServeHTTP(w, r)
		t.cur.Delete(g)
		t.end(s)
	})
}

// tracedBackend times every web3.Backend call the manager makes. It
// embeds the Backend interface, so only Backend methods are promoted,
// and forwards the head-view and head-subscription capabilities the
// upgrade guard and the SSE tier look for.
type tracedBackend struct {
	web3.Backend
	t *tracer
}

func (b *tracedBackend) HeadView() *chain.HeadView {
	return b.Backend.(web3.HeadViewer).HeadView()
}

func (b *tracedBackend) SubscribeHeads(buf int) *chain.Subscription {
	return b.Backend.(web3.HeadSubscriber).SubscribeHeads(buf)
}

func (b *tracedBackend) SendRawTransaction(raw []byte) (ethtypes.Hash, error) {
	s := b.t.child("web3.send_raw")
	defer b.t.end(s)
	return b.Backend.SendRawTransaction(raw)
}

func (b *tracedBackend) CallContract(msg web3.CallMsg) ([]byte, error) {
	s := b.t.child("web3.call")
	defer b.t.end(s)
	return b.Backend.CallContract(msg)
}

func (b *tracedBackend) EstimateGas(msg web3.CallMsg) (uint64, error) {
	s := b.t.child("web3.estimate_gas")
	defer b.t.end(s)
	return b.Backend.EstimateGas(msg)
}

func (b *tracedBackend) TransactionReceipt(h ethtypes.Hash) (*ethtypes.Receipt, bool, error) {
	s := b.t.child("web3.receipt")
	defer b.t.end(s)
	return b.Backend.TransactionReceipt(h)
}

func (b *tracedBackend) FilterLogs(q chain.FilterQuery) ([]*ethtypes.Log, error) {
	s := b.t.child("web3.filter_logs")
	defer b.t.end(s)
	return b.Backend.FilterLogs(q)
}

func (b *tracedBackend) GetNonce(a ethtypes.Address) (uint64, error) {
	s := b.t.child("web3.state")
	defer b.t.end(s)
	return b.Backend.GetNonce(a)
}

func (b *tracedBackend) GetCode(a ethtypes.Address) ([]byte, error) {
	s := b.t.child("web3.state")
	defer b.t.end(s)
	return b.Backend.GetCode(a)
}

// tracedStore times the IPFS blob store the manager reads ABIs,
// layouts and documents from.
type tracedStore struct {
	ipfs.Store
	t *tracer
}

func (s *tracedStore) Add(data []byte) (ipfs.CID, error) {
	sp := s.t.child("ipfs.add")
	defer s.t.end(sp)
	return s.Store.Add(data)
}

func (s *tracedStore) Get(c ipfs.CID) ([]byte, error) {
	sp := s.t.child("ipfs.get")
	defer s.t.end(sp)
	return s.Store.Get(c)
}
