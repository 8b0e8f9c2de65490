package main

import "testing"

// TestTracedLifecycleCompletes runs one Fig. 4 lifecycle on a node
// whose manager talks to the wrapped backend and store. The wrapper
// must keep the head-view capability, or the upgrade guard fails
// every modify closed as property_unverifiable.
func TestTracedLifecycleCompletes(t *testing.T) {
	tr := newTracer()
	n, err := openNode(t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer n.close()
	c := newClient(n.url, tr)
	defer c.close()
	var landlord, tenant party
	if landlord.cookie, landlord.addr, err = c.user("landlord"); err != nil {
		t.Fatal(err)
	}
	if tenant.cookie, tenant.addr, err = c.user("tenant"); err != nil {
		t.Fatal(err)
	}
	tr.on.Store(true)
	s := newSink(newTally())
	in := makePlan("lifecycle", 1, 1).Lifecycles[0]
	if err := (rest{c, s}).timedLifecycle(n.bc, landlord, tenant, in); err != nil {
		t.Fatalf("traced lifecycle: %v", err)
	}
	tr.on.Store(false)
	if r := s.tally.ratio(); r != 0 {
		t.Fatalf("fail_ratio = %v: %v", r, s.tally.failures())
	}
	if len(s.gas) != 1 || s.gas[0] == 0 {
		t.Fatalf("gas per lifecycle = %v", s.gas)
	}
	st := newSpanStats(tr.snapshot())
	for _, name := range []string{"client.modify", "app.modify", "app.write", "app.read", "web3.send_raw", "web3.call", "ipfs.add", "rpc.eth_getTransactionByHash"} {
		if st.count(name) == 0 {
			t.Errorf("no %s span", name)
		}
	}
	if st.count("app.modify") != 1 {
		t.Errorf("app.modify spans = %d, want 1", st.count("app.modify"))
	}
}
