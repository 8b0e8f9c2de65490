package main

import (
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"

	"legalchain/internal/chain"
)

// sink collects one phase's end-to-end samples. Failed operations add
// an infinite latency: a failure misses every latency limit.
type sink struct {
	tally      *tally
	writes     series
	reads      series
	lifecycles series
	gas        []float64
	blocks     [][2]uint64 // (first, last] head range of each finished lifecycle
	last       string      // final version address of the last finished lifecycle
	mu         sync.Mutex
}

func newSink(t *tally) *sink { return &sink{tally: t} }

// timed runs fn as one operation of class, adding its latency to ser.
func (s *sink) timed(class string, ser *series, fn func() error) error {
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	s.tally.record(class, err)
	if err != nil {
		ser.addMs(math.Inf(1))
		return err
	}
	ser.add(d)
	return nil
}

// check counts one output check in the tally.
func (s *sink) check(class string, err error) error {
	s.tally.record("check."+class, err)
	return err
}

// party is a registered app user: its session cookie and address.
type party struct {
	cookie string
	addr   string
}

// detail is the part of GET /api/v1/contracts/{addr} the checks read.
type detail struct {
	Row struct {
		Address string
	} `json:"row"`
	Live     map[string]string `json:"live"`
	Versions []struct {
		Address string `json:"address"`
	} `json:"versions"`
	Verified bool `json:"verified"`
}

// rest is the REST surface the lifecycle steps use, on one client.
type rest struct {
	c *client
	s *sink
}

func (r rest) deploy(landlord party, t terms) (string, error) {
	var out struct {
		Address string `json:"address"`
	}
	err := r.s.timed("write", &r.s.writes, func() error {
		if err := r.c.rest(http.MethodPost, "/api/v1/contracts", "write", landlord.cookie, t, &out); err != nil {
			return err
		}
		if !isAddr(out.Address) {
			return fmt.Errorf("deploy returned address %q", out.Address)
		}
		return nil
	})
	return out.Address, err
}

// action posts one lifecycle action and returns the decoded answer.
func (r rest) action(who party, addr, action string, t *terms) (map[string]interface{}, error) {
	kind := "write"
	if action == "modify" {
		kind = "modify"
	}
	body := map[string]interface{}{"action": action}
	if t != nil {
		body["terms"] = t
	}
	var out map[string]interface{}
	err := r.s.timed("write", &r.s.writes, func() error {
		if err := r.c.rest(http.MethodPost, "/api/v1/contracts/"+addr+"/actions", kind, who.cookie, body, &out); err != nil {
			return err
		}
		if out["status"] != "ok" {
			return fmt.Errorf("%s answered %v", action, out)
		}
		return nil
	})
	return out, err
}

// get reads the dashboard detail of addr, as the dashboard does after
// every action; want, when set, checks the answer as part of the read.
func (r rest) get(who party, addr string, want func(*detail) error) error {
	return r.s.timed("read", &r.s.reads, func() error {
		var d detail
		if err := r.c.rest(http.MethodGet, "/api/v1/contracts/"+addr, "read", who.cookie, nil, &d); err != nil {
			return err
		}
		if !strings.EqualFold(d.Row.Address, addr) {
			return fmt.Errorf("detail of %s returned row %q", addr, d.Row.Address)
		}
		if want != nil {
			return want(&d)
		}
		return nil
	})
}

// pay pays one month of rent and looks the payment up over JSON-RPC.
func (r rest) pay(tenant party, addr string) error {
	out, err := r.action(tenant, addr, "pay", nil)
	if err != nil {
		return err
	}
	hash, _ := out["txHash"].(string)
	var tx struct {
		Hash string `json:"hash"`
		From string `json:"from"`
	}
	err = r.s.timed("read", &r.s.reads, func() error {
		if err := r.c.call(&tx, "eth_getTransactionByHash", hash); err != nil {
			return err
		}
		if !strings.EqualFold(tx.Hash, hash) || !strings.EqualFold(tx.From, tenant.addr) {
			return fmt.Errorf("eth_getTransactionByHash(%s) = %+v, want from %s", hash, tx, tenant.addr)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return r.get(tenant, addr, nil)
}

// modify links a new version and confirms it as the tenant; it returns
// the new version's address after checking the walked chain.
func (r rest) modify(landlord, tenant party, addr string, t terms, wantVersions int) (string, error) {
	out, err := r.action(landlord, addr, "modify", &t)
	if err != nil {
		return "", err
	}
	row, _ := out["newVersion"].(map[string]interface{})
	next, _ := row["address"].(string)
	if !isAddr(next) {
		return "", r.s.check("modify", fmt.Errorf("modify returned version %v", out["newVersion"]))
	}
	if err := r.get(landlord, next, nil); err != nil {
		return "", err
	}
	if _, err := r.action(tenant, next, "confirm-modification", nil); err != nil {
		return "", err
	}
	return next, r.get(tenant, next, func(d *detail) error {
		if len(d.Versions) != wantVersions || !d.Verified {
			return fmt.Errorf("chain of %s: %d versions, verified=%v; want %d verified",
				next, len(d.Versions), d.Verified, wantVersions)
		}
		return nil
	})
}

// deployConfirmed deploys as landlord and confirms as tenant.
func (r rest) deployConfirmed(landlord, tenant party, t terms) (string, error) {
	addr, err := r.deploy(landlord, t)
	if err != nil {
		return "", err
	}
	if err := r.get(landlord, addr, nil); err != nil {
		return "", err
	}
	if _, err := r.action(tenant, addr, "confirm", nil); err != nil {
		return "", err
	}
	return addr, r.get(tenant, addr, nil)
}

// lifecycle runs the paper's Fig. 4 flow once: deploy → confirm →
// pay ×2 → modify → confirm-modification → terminate, with a detail
// read after every action.
func (r rest) lifecycle(landlord, tenant party, in lifecycleInput) (string, error) {
	addr, err := r.deployConfirmed(landlord, tenant, in.Deploy)
	if err != nil {
		return "", err
	}
	for i := 0; i < 2; i++ {
		if err := r.pay(tenant, addr); err != nil {
			return "", err
		}
	}
	next, err := r.modify(landlord, tenant, addr, in.Modify, 2)
	if err != nil {
		return "", err
	}
	if _, err := r.action(tenant, next, "terminate", nil); err != nil {
		return "", err
	}
	return next, r.get(tenant, next, nil)
}

// timedLifecycle runs one lifecycle, recording its wall time and the
// gas of the blocks it sealed. The caller is the only writer, so the
// head range it spans holds exactly its transactions.
func (r rest) timedLifecycle(bc *chain.Blockchain, landlord, tenant party, in lifecycleInput) error {
	first := bc.View().BlockNumber()
	t0 := time.Now()
	final, err := r.lifecycle(landlord, tenant, in)
	d := time.Since(t0)
	if err != nil {
		r.s.lifecycles.addMs(math.Inf(1))
		return err
	}
	last := bc.View().BlockNumber()
	r.s.lifecycles.add(d)
	r.s.mu.Lock()
	r.s.gas = append(r.s.gas, float64(gasBetween(bc, first, last)))
	r.s.blocks = append(r.s.blocks, [2]uint64{first, last})
	r.s.last = final
	r.s.mu.Unlock()
	return nil
}

// gasBetween sums the gas of blocks (first, last].
func gasBetween(bc *chain.Blockchain, first, last uint64) uint64 {
	v := bc.View()
	var gas uint64
	for n := first + 1; n <= last; n++ {
		if b, ok := v.BlockByNumber(n); ok {
			gas += b.Header.GasUsed
		}
	}
	return gas
}

func isAddr(s string) bool { return len(s) == 42 && strings.HasPrefix(s, "0x") }

// headRef is the in-process reference subscriber: it records when each
// head was published and how long the hub took to hand it over.
type headRef struct {
	sub       *chain.Subscription
	done      chan struct{}
	mu        sync.Mutex
	published map[uint64]time.Time
	hubLag    series
	dropped   uint64
}

func newHeadRef(bc *chain.Blockchain) *headRef {
	h := &headRef{sub: bc.SubscribeHeads(0), done: make(chan struct{}), published: map[uint64]time.Time{}}
	go func() {
		defer close(h.done)
		for {
			<-h.sub.Wait()
			events, gap, alive := h.sub.Drain()
			now := time.Now()
			h.mu.Lock()
			h.dropped += gap
			for _, ev := range events {
				at := ev.View.PublishedAt()
				h.published[ev.View.BlockNumber()] = at
				h.hubLag.add(now.Sub(at))
			}
			h.mu.Unlock()
			if !alive {
				return
			}
		}
	}()
	return h
}

func (h *headRef) close() {
	h.sub.Close()
	<-h.done
}

// notifyLags pairs each head the WS client received in (first, last]
// with its publication time.
func notifyLags(h *headRef, w *headWatcher, first, last uint64) *series {
	out := &series{}
	h.mu.Lock()
	defer h.mu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	for n := first + 1; n <= last; n++ {
		pub, ok1 := h.published[n]
		got, ok2 := w.recv[n]
		if !ok1 || !ok2 {
			out.addMs(math.Inf(1))
			continue
		}
		out.add(got.Sub(pub))
	}
	return out
}
