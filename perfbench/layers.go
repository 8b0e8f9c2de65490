package main

import (
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"legalchain/internal/ethtypes"
	"legalchain/internal/wallet"
)

// rpcMethods are the JSON-RPC methods with a per-method server span.
var rpcMethods = []string{
	"eth_call", "eth_getBlockByNumber", "eth_getLogs",
	"eth_sendRawTransaction", "eth_getTransactionReceipt", "eth_getTransactionByHash",
}

// spanStats groups the traced phase's spans by name.
type spanStats struct {
	byName   map[string][]span
	children map[int64][]span
}

func newSpanStats(spans []span) *spanStats {
	st := &spanStats{byName: map[string][]span{}, children: map[int64][]span{}}
	for _, s := range spans {
		st.byName[s.Name] = append(st.byName[s.Name], s)
		if s.Parent != 0 {
			st.children[s.Parent] = append(st.children[s.Parent], s)
		}
	}
	return st
}

func (st *spanStats) count(name string) int { return len(st.byName[name]) }

// meanMs is the mean duration of the spans named name.
func (st *spanStats) meanMs(name string) float64 {
	ss := st.byName[name]
	if len(ss) == 0 {
		return 0
	}
	var sum int64
	for _, s := range ss {
		sum += s.dur()
	}
	return float64(sum) / float64(len(ss)) / 1e6
}

// selfMs is the mean self time of the spans named name: duration
// minus the time their child spans cover.
func (st *spanStats) selfMs(name string) float64 {
	ss := st.byName[name]
	if len(ss) == 0 {
		return 0
	}
	var sum int64
	for _, s := range ss {
		sum += selfTime(s, st.children[s.ID])
	}
	return float64(sum) / float64(len(ss)) / 1e6
}

// transportMs is the mean client round trip minus the server span it
// caused: what HTTP framing, the socket and JSON decoding add.
func (st *spanStats) transportMs() float64 {
	var sum int64
	n := 0
	for name, ss := range st.byName {
		if !strings.HasPrefix(name, "client.") {
			continue
		}
		for _, c := range ss {
			for _, k := range st.children[c.ID] {
				if strings.HasPrefix(k.Name, "app.") || strings.HasPrefix(k.Name, "rpc.") {
					sum += c.dur() - k.dur()
					n++
				}
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e6
}

func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer fills the per-layer metrics of a traced run from its spans,
// the registry differences d over the warm-up and the traced half, and
// direct timings. Process figures cover the traced half alone.
func (r *report) perLayer(e *env, tr *tracer, warm, traced, untraced *phase, ref *headRef,
	signMs *series, d, after promSample, folded0 uint64, ms0, ms1 *runtime.MemStats, cpu time.Duration) {
	st := newSpanStats(tr.snapshot())
	// Spans cover the warm-up and the traced half, so per-lifecycle
	// counts divide by the lifecycles of both.
	lifeN := float64(warm.lifeN + traced.lifeN)
	var lifeBlocks float64
	for _, ph := range []*phase{warm, traced} {
		for _, b := range ph.s.blocks {
			lifeBlocks += float64(b[1] - b[0])
		}
	}
	for _, k := range []string{"write", "modify", "read"} {
		r.put("app.self_ms."+k, "ms", st.selfMs("app."+k))
	}
	for _, m := range rpcMethods {
		r.put("rpc.server_ms."+m, "ms", st.meanMs("rpc."+m))
	}
	r.put("http.transport_ms", "ms", st.transportMs())

	sends := float64(st.count("web3.send_raw"))
	r.put("web3.txs_per_lifecycle", "count", per(sends, lifeN))
	r.put("web3.calls_per_lifecycle", "count", per(float64(st.count("web3.call")+st.count("web3.estimate_gas")), lifeN))
	r.put("web3.send_raw_ms", "ms", st.meanMs("web3.send_raw"))
	r.put("web3.estimate_gas_ms", "ms", st.meanMs("web3.estimate_gas"))
	r.put("web3.call_ms", "ms", st.meanMs("web3.call"))
	r.put("web3.receipt_polls_per_tx", "count", per(float64(st.count("web3.receipt")), sends))

	if signMs.count() == 0 {
		signSample(e, signMs)
	}
	r.put("wallet.sign_ms", "ms", mean(signMs.sorted()))
	r.put("secp256k1.recover_ms", "ms", recoverSample(e))

	blocks := d["legalchain_chain_blocks_sealed_total"]
	seal := histMeanMs(d, "legalchain_chain_seal_seconds")
	exec := per(1000*d["legalchain_chain_exec_seconds_sum"], blocks)
	root := histMeanMs(d, "legalchain_chain_state_root_seconds")
	appendMs := histMeanMs(d, "legalchain_blockdb_append_seconds")
	r.put("chain.seal_ms", "ms", seal)
	r.put("chain.exec_ms", "ms", exec)
	r.put("chain.state_root_ms", "ms", root)
	residual := 0.0
	if blocks > 0 {
		residual = seal - exec - root - appendMs
	}
	r.put("chain.seal_residual_ms", "ms", residual)
	r.put("chain.blocks_per_lifecycle", "count", per(lifeBlocks, lifeN))
	r.put("chain.call_ms", "ms", histMeanMs(d, "legalchain_chain_call_seconds"))
	hub := 0.0
	if h := ref.hubLag.sorted(); len(h) > 0 {
		hub = percentile(h, 0.5)
	}
	r.put("chain.hub_lag_ms_p50", "ms", hub)
	r.put("chain.sub_dropped", "count", d["legalchain_chain_sub_dropped_total"])

	r.put("evm.steps_per_tx", "count", histMean(d, "legalchain_evm_steps"))
	r.put("evm.gas_per_tx", "gas", histMean(d, "legalchain_evm_gas_used"))
	r.put("blockdb.append_ms", "ms", appendMs)
	r.put("blockdb.fsync_ms", "ms", histMeanMs(d, "legalchain_blockdb_fsync_seconds"))
	r.put("docstore.wal_appends_per_lifecycle", "count", per(d["legalchain_docstore_wal_append_seconds_count"], lifeN))
	r.put("docstore.wal_append_ms", "ms", histMeanMs(d, "legalchain_docstore_wal_append_seconds"))

	appReads := float64(st.count("app.read"))
	r.put("ipfs.adds_per_lifecycle", "count", per(float64(st.count("ipfs.add")), lifeN))
	r.put("ipfs.add_ms", "ms", st.meanMs("ipfs.add"))
	r.put("ipfs.gets_per_read", "count", per(float64(st.count("ipfs.get")), appReads))
	r.put("ipfs.get_ms", "ms", st.meanMs("ipfs.get"))

	var notify []float64
	for _, ph := range []*phase{warm, traced} {
		if ph.notify != nil {
			notify = append(notify, ph.notify.sorted()...)
		}
	}
	sort.Float64s(notify)
	wsSelf := 0.0
	if len(notify) > 0 {
		wsSelf = percentile(notify, 0.5) - hub
	}
	r.put("ws.self_ms", "ms", wsSelf)
	lag, _, _ := e.n.tower.ConvergenceLag()
	r.put("watch.convergence_lag_blocks", "blocks", lag)
	r.put("watch.blocks_folded", "count", float64(e.n.tower.Status().Folded-folded0))

	r.put("xtrace.ring_bytes", "bytes", after["legalchain_xtrace_ring_bytes"])
	r.put("xtrace.dropped", "count", d["legalchain_xtrace_dropped_total"])
	hits := d["legalchain_statestore_cache_hits_total"]
	misses := d["legalchain_statestore_cache_misses_total"]
	if hits+misses > 0 {
		r.samples["statestore.cache_hit_ratio"] = hits / (hits + misses)
	} else {
		r.samples["statestore.cache_hit_ratio"] = nil // no statestore at the default flags
	}

	ops := float64(finite(traced.s.writes.sorted()) + finite(traced.s.reads.sorted()))
	r.put("go.alloc_bytes_per_op", "bytes", per(float64(ms1.TotalAlloc-ms0.TotalAlloc), ops))
	r.put("go.gc_cpu_fraction", "ratio", ms1.GCCPUFraction)
	r.put("proc.cpu_ms_per_op", "ms", per(float64(cpu)/1e6, ops))

	// Tracing overhead: completed operations per second, untraced half
	// against traced half.
	rate := func(ph *phase) float64 {
		return float64(finite(ph.s.writes.sorted())+finite(ph.s.reads.sorted())) / ph.elapsed().Seconds()
	}
	r.put("trace.overhead_pct", "%", 100*(per(rate(untraced), rate(traced))-1))
}

// signSample times SignTx on a fixed set of transfers, for workloads
// whose inputs are signed inside the node rather than by the client.
func signSample(e *env, out *series) {
	ks := wallet.NewKeystore()
	acct := ks.Import(e.n.faucet.Key)
	to := ethtypes.HexToAddress("0x00000000000000000000000000000000000000aa")
	for i := 0; i < 32; i++ {
		tx := &ethtypes.Transaction{Nonce: uint64(i), GasPrice: gasPrice, Gas: 21000, To: &to}
		t0 := time.Now()
		if ks.SignTx(acct.Address, tx, e.n.bc.ChainID()) == nil {
			out.add(time.Since(t0))
		}
	}
}

// recoverSample times Transaction.Sender on up to 32 of the run's own
// transactions, newest first.
func recoverSample(e *env) float64 {
	v := e.n.bc.View()
	var total time.Duration
	n := 0
	for b := v.BlockNumber(); b > 0 && n < 32; b-- {
		blk, ok := v.BlockByNumber(b)
		if !ok {
			continue
		}
		for _, tx := range blk.Transactions {
			if n == 32 {
				break
			}
			t0 := time.Now()
			if _, err := tx.Sender(e.n.bc.ChainID()); err == nil {
				total += time.Since(t0)
				n++
			}
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return float64(total) / float64(n) / 1e6
}
