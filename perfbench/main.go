// Command perfbench is the repository benchmark: it builds a rental
// platform node in-process, wired as cmd/rentald wires it at its
// default flags, serves REST, JSON-RPC and WS on loopback, drives one
// workload against it, checks every output, and prints the metrics.
//
//	perfbench --workload lifecycle|rawtx|reads --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 they are the
// per-layer ones of a traced run. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"legalchain/internal/ethtypes"
	"legalchain/internal/wallet"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	var (
		o     options
		trace int
	)
	flag.StringVar(&o.workload, "workload", "lifecycle", "lifecycle, rawtx or reads")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	switch o.workload {
	case "lifecycle", "rawtx", "reads":
	default:
		fatal(fmt.Errorf("unknown workload %q", o.workload))
	}
	if o.seconds < 1 {
		fatal(errors.New("--seconds must be at least 1"))
	}
	rep, err := run(o)
	if err != nil {
		fatal(err)
	}
	record, _ := json.Marshal(map[string]interface{}{"record": rep.record, "samples": rep.samples, "failures": rep.tally.failures()})
	fmt.Println(string(record))
	attempted, failed := rep.tally.counts()
	out, err := json.Marshal(map[string]interface{}{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   rep.metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if failed != 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run produced.
type report struct {
	tally   *tally
	metrics map[string]metric
	samples map[string]interface{}
	record  map[string]interface{}
}

func (r *report) put(name, unit string, v float64) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		// A failed operation (infinite latency) or a phase without
		// samples; the tally already counts the failure.
		v = math.MaxFloat64
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// phase is one stretch of load: its samples and its wall time.
type phase struct {
	s          *sink
	start, end time.Time
	lifeN      int // completed lifecycles
	notify     *series
}

func (ph *phase) elapsed() time.Duration { return ph.end.Sub(ph.start) }

// env is a node after set-up, with the parties and workload state.
type env struct {
	n                *node
	c1               *client
	landlord, tenant party
	pop              []version
	raw              *rawtxState
}

// setUp opens a node on an empty dir and populates it for the
// workload; every operation must succeed.
func setUp(o options, dir string, p *plan, tr *tracer) (*env, error) {
	n, err := openNode(dir, tr)
	if err != nil {
		return nil, err
	}
	e := &env{n: n, c1: newClient(n.url, tr)}
	fail := func(err error) (*env, error) {
		e.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	for _, who := range []struct {
		p    *party
		name string
	}{{&e.landlord, "landlord"}, {&e.tenant, "tenant"}} {
		if who.p.cookie, who.p.addr, err = e.c1.user(who.name); err != nil {
			return fail(err)
		}
	}
	t := newTally()
	switch o.workload {
	case "reads":
		e.pop, err = populateReads(rest{e.c1, newSink(t)}, e.landlord, e.tenant, p)
	case "rawtx":
		e.raw, err = setupRawtx(n, e.c1, p)
	}
	if err == nil && t.ratio() != 0 {
		err = fmt.Errorf("%v", t.failures())
	}
	if err != nil {
		return fail(err)
	}
	return e, nil
}

func (e *env) close() {
	e.c1.close()
	if err := e.n.close(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: closing node: %v\n", err)
	}
}

// run performs one benchmark run.
func run(o options) (*report, error) {
	p := makePlan(o.workload, o.seed, o.seconds)
	outDir := filepath.Join(".bench_build", "perfbench")
	runDir := filepath.Join(outDir, fmt.Sprintf("run-%s-%d-%d", o.workload, o.seed, os.Getpid()))
	defer os.RemoveAll(runDir)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	// Set up several times on fresh dirs; setup_s is the median. The
	// last node serves the timed phase.
	var setups []float64
	var e *env
	for i := 0; i < setupRuns; i++ {
		dir := filepath.Join(runDir, "node"+strconv.Itoa(i))
		t0 := time.Now()
		ne, err := setUp(o, dir, p, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRuns-1 {
			ne.close()
			os.RemoveAll(dir)
		} else {
			e = ne
		}
	}
	defer e.close()

	rep := &report{tally: newTally(), metrics: map[string]metric{}, samples: map[string]interface{}{}}
	ref := newHeadRef(e.n.bc)
	defer ref.close()

	// Warm-up: every surface once, with a WS newHeads subscriber on the
	// second connection. The subscriber stays for the lifecycle
	// workload's timed phase; elsewhere the two clients need both
	// connections.
	settle()
	var warm *phase
	ws, err := dialHeads(e.n.url)
	if err != nil {
		return nil, err
	}
	defer func() {
		if ws != nil {
			ws.close()
		}
	}()
	var reg promSample // registry differences over the traced stretches
	if o.trace {
		before := scrape()
		tr.on.Store(true)
		warm = warmUp(e, p, rep.tally, ws, ref)
		tr.on.Store(false)
		reg = diff(before, scrape())
	} else {
		warm = warmUp(e, p, rep.tally, ws, ref)
	}
	if o.workload != "lifecycle" {
		closeHeads(ws, rep.tally)
		ws = nil
	}

	var signMs series
	if e.raw != nil {
		if err := e.raw.sign(&signMs); err != nil {
			return nil, err
		}
	}

	settle()
	var c2 *client
	if o.workload != "lifecycle" {
		c2 = newClient(e.n.url, tr)
	}
	timed := func(d time.Duration) *phase {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		defer cancel()
		return runPhase(ctx, o, e, c2, p, rep.tally, ws, ref)
	}

	var main, traced *phase
	var after promSample
	var folded0 uint64
	var ms0, ms1 runtime.MemStats
	var cpu0, cpu1 time.Duration
	if !o.trace {
		main = timed(time.Duration(o.seconds) * time.Second)
	} else {
		half := time.Duration(o.seconds) * time.Second / 2
		main = timed(half)
		folded0 = e.n.tower.Status().Folded
		before := scrape()
		runtime.ReadMemStats(&ms0)
		cpu0 = cpuTime()
		tr.on.Store(true)
		traced = timed(half)
		tr.on.Store(false)
		cpu1 = cpuTime()
		runtime.ReadMemStats(&ms1)
		after = scrape()
		reg.add(diff(before, after))
	}
	if c2 != nil {
		c2.close()
	}
	if e.raw != nil {
		checkRawtx(e.c1, e.raw, newSink(rep.tally))
	}
	if ws != nil {
		closeHeads(ws, rep.tally)
		ws = nil
	}

	// Ether is conserved over the whole run.
	supply := e.n.bc.View().TotalSupply()
	var supplyErr error
	if !supply.Eq(genesisFunds) {
		supplyErr = fmt.Errorf("total supply %s, genesis %s", supply, genesisFunds)
	}
	rep.tally.record("check.supply", supplyErr)

	rep.endToEnd(o, setups, main)
	if o.trace {
		// End-to-end figures come from untraced runs; a traced run
		// keeps its own only in the record.
		rep.samples["end_to_end_of_traced_run"] = rep.metrics
		rep.metrics = map[string]metric{}
		rep.perLayer(e, tr, warm, traced, main, ref, &signMs, reg, after, folded0, &ms0, &ms1, cpu1-cpu0)
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		spans := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
		if err := tr.writeFile(spans); err != nil {
			return nil, err
		}
		rep.samples["spans_file"] = spans
	}
	rep.record = hostRecord(o, p)
	if e.raw != nil {
		rep.record["rawtx_signed_per_wallet"] = len(e.raw.wallets[0].txs)
		rep.record["rawtx_sent"] = []int{e.raw.wallets[0].sent, e.raw.wallets[1].sent}
	}
	return rep, nil
}

// warmUp runs one Fig. 4 lifecycle, then each read of the reads
// workload on the version it ended with, then one raw transfer from
// the faucet with its receipt. It fills the node's caches, and in a
// traced run gives every layer at least this much work.
func warmUp(e *env, p *plan, t *tally, ws *headWatcher, ref *headRef) *phase {
	ph := runLifecycles(e, p, t, ws, ref, func(i int) bool { return i < 1 })
	r := rest{e.c1, ph.s}
	if ph.lifeN == 1 {
		in := p.Lifecycles[0].Modify
		v := version{addr: ph.s.last, rentWei: in.rentWei, house: in.House, chainLen: 2}
		head := e.n.bc.View().BlockNumber()
		for i, kind := range []string{"eth_call", "eth_call", "eth_getBlockByNumber", "eth_getLogs", "detail"} {
			readOnce(r, e.landlord, readOp{Kind: kind}, i, v, head)
		}
	}
	ks := wallet.NewKeystore()
	ks.Import(e.n.faucet.Key)
	to := ethtypes.HexToAddress("0x000000000000000000000000000000000000dEaD")
	ph.s.timed("write", &ph.s.writes, func() error {
		nonce, err := nonceOf(e.c1, e.n.faucet.Address)
		if err != nil {
			return err
		}
		tx := &ethtypes.Transaction{Nonce: nonce, GasPrice: gasPrice, Gas: 21000, To: &to, Value: ethtypes.Gwei(1)}
		_, err = sendSigned(e.c1, ks, e.n.bc.ChainID(), e.n.faucet.Address, tx)
		return err
	})
	return ph
}

// closeHeads disconnects the WS subscriber and checks that its stream
// had no gap, no head out of order and no error.
func closeHeads(ws *headWatcher, t *tally) {
	ws.close()
	var err error
	if ws.gaps != 0 || ws.outOfOrder != 0 || ws.err != nil {
		err = fmt.Errorf("ws newHeads: %d gaps, %d out of order, err %v", ws.gaps, ws.outOfOrder, ws.err)
	}
	t.record("check.ws", err)
}

// runLifecycles runs Fig. 4 lifecycles on the set-up connection while
// more(i) holds, then pairs the WS heads of the blocks they sealed
// with their publication times.
func runLifecycles(e *env, p *plan, t *tally, ws *headWatcher, ref *headRef, more func(int) bool) *phase {
	ph := &phase{s: newSink(t)}
	r := rest{e.c1, ph.s}
	first := e.n.bc.View().BlockNumber()
	ph.start = time.Now()
	for i := 0; more(i); i++ {
		if r.timedLifecycle(e.n.bc, e.landlord, e.tenant, p.Lifecycles[i%len(p.Lifecycles)]) == nil {
			ph.lifeN++
		}
	}
	ph.end = time.Now()
	last := e.n.bc.View().BlockNumber()
	var err error
	if !ws.waitFor(last, 10*time.Second) {
		err = fmt.Errorf("ws newHeads: head %d never arrived", last)
	}
	t.record("check.ws_heads", err)
	ph.notify = notifyLags(ref, ws, first, last)
	return ph
}

// runPhase runs the workload's clients until ctx ends; clients finish
// the operation in flight, so elapsed runs to the last completion.
func runPhase(ctx context.Context, o options, e *env, c2 *client, p *plan, t *tally, ws *headWatcher, ref *headRef) *phase {
	if o.workload == "lifecycle" {
		return runLifecycles(e, p, t, ws, ref, func(int) bool { return ctx.Err() == nil })
	}
	ph := &phase{s: newSink(t)}
	clients := []*client{e.c1, c2}
	head := e.n.bc.View().BlockNumber()
	ph.start = time.Now()
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if o.workload == "rawtx" {
				runRawtx(ctx, clients[i], e.raw.wallets[i], ph.s)
			} else {
				runReads(ctx, rest{clients[i], ph.s}, e.landlord, p.Reads[i], e.pop, head)
			}
		}(i)
	}
	wg.Wait()
	ph.end = time.Now()
	return ph
}

// endToEnd fills the end-to-end metrics from the timed phase. A
// workload whose timed phase has no writes (reads) reports none; tails,
// throughputs, and the Fig. 4 and WS figures only the lifecycle
// workload has, go to the record.
func (r *report) endToEnd(o options, setups []float64, main *phase) {
	count := func(name string, v []float64, ps ...float64) {
		c := map[string]interface{}{"n": len(v)}
		for _, p := range ps {
			c["beyond_p"+strconv.FormatFloat(100*p, 'f', -1, 64)] = beyond(len(v), p)
		}
		r.samples[name] = c
	}
	// Tails and throughputs go to the record only: on a shared 2-vCPU
	// VM their spread between runs is too wide to carry a bound.
	recorded := map[string]interface{}{}
	secs := main.elapsed().Seconds()
	r.put("setup_s", "s", median(setups))
	count("setup_s", setups, 0.5)
	if ws := main.s.writes.sorted(); len(ws) > 0 {
		r.put("write_ms_p50", "ms", percentile(ws, 0.5))
		recorded["write_ms_p95"] = jsonNum(percentile(ws, 0.95))
		recorded["writes_per_s"] = float64(finite(ws)) / secs
		count("write_ms", ws, 0.5, 0.95)
	}
	rs := main.s.reads.sorted()
	r.put("read_ms_p50", "ms", percentile(rs, 0.5))
	recorded["read_ms_p99"] = jsonNum(percentile(rs, 0.99))
	recorded["reads_per_s"] = float64(finite(rs)) / secs
	count("read_ms", rs, 0.5, 0.99)
	r.put("max_rss_mb", "MiB", maxRSSMiB())
	r.samples["recorded"] = recorded

	if o.workload == "lifecycle" {
		ls, ns := main.s.lifecycles.sorted(), main.notify.sorted()
		r.samples["lifecycle"] = map[string]interface{}{
			"lifecycle_ms_p50":  jsonNum(percentile(ls, 0.5)),
			"lifecycle_ms_p90":  jsonNum(percentile(ls, 0.9)),
			"gas_per_lifecycle": jsonNum(mean(main.s.gas)),
			"notify_ms_p50":     jsonNum(percentile(ns, 0.5)),
			"notify_ms_p99":     jsonNum(percentile(ns, 0.99)),
		}
		count("lifecycle_ms", ls, 0.5, 0.9)
		count("notify_ms", ns, 0.5, 0.99)
	}
	r.samples["fail_ratio"] = r.tally.ratio()
	r.samples["elapsed_s"] = main.elapsed().Seconds()
}

// jsonNum is v, or nil where JSON has no number for it (no samples, or
// a failed operation's infinite latency).
func jsonNum(v float64) interface{} {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return v
}

// finite counts the samples of completed (not failed) operations.
func finite(v []float64) int {
	n := 0
	for _, x := range v {
		if !math.IsInf(x, 0) {
			n++
		}
	}
	return n
}

// maxRSSMiB is the process's peak resident set (VmHWM).
func maxRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			kb, _ := strconv.ParseFloat(strings.Fields(line)[1], 64)
			return kb / 1024
		}
	}
	return math.NaN()
}

// settle lets set-up work drain before a measured phase: dirty pages
// the set-up left go to disk, and the heap starts from a collection.
func settle() {
	syscall.Sync()
	runtime.GC()
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostRecord describes the host and the inputs of the run.
func hostRecord(o options, p *plan) map[string]interface{} {
	rec := map[string]interface{}{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"inputs_sha": p.digest(),
		"setups":     setupRuns,
	}
	switch o.workload {
	case "lifecycle":
		rec["clients"] = map[string]int{"rest_rpc": 1, "ws": 1}
	case "reads":
		rec["clients"] = map[string]int{"rest_rpc": 2}
		rec["population"] = map[string]int{"single": readsSingle, "chained": readsChained, "versions_per_chain": chainedVersions}
	case "rawtx":
		rec["clients"] = map[string]int{"rpc": 2}
		rec["population"] = map[string]int{"rentals_per_wallet": rawtxRentals, "recipients": rawtxRecipients, "rate_cap_per_wallet": rawtxRateCap}
	}
	return rec
}
