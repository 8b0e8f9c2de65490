// Command devnet runs the local development chain with a JSON-RPC
// endpoint — the Ganache role in the paper's Table I. It pre-funds a
// deterministic set of accounts and prints their keys, so wallets and
// the rental application can sign transactions against it.
//
// With -datadir the chain is durable: every sealed block is journaled
// to a segmented, checksummed log and the node resumes from it on the
// next start, verifying state roots as it recovers. Without -datadir
// the chain lives in memory, like Ganache.
//
// With -metrics-addr a second listener exposes /metrics (Prometheus
// text format) and /healthz; adding -pprof mounts the Go profiler
// under /debug/pprof/ on that listener. -log-level debug turns on
// structured per-request JSON-RPC logs.
//
// Usage:
//
//	devnet [-addr :8545] [-ws-addr :8546] [-accounts 10] [-seed "legalchain devnet"] [-balance 1000] [-datadir ./devnet-data] [-metrics-addr :9090] [-pprof] [-log-level info] [-trace] [-trace-sample 1] [-trace-slow 250ms]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"legalchain/internal/chain"
	"legalchain/internal/ethtypes"
	"legalchain/internal/hexutil"
	"legalchain/internal/obs"
	"legalchain/internal/rpc"
	"legalchain/internal/wallet"
	"legalchain/internal/watch"
	"legalchain/internal/xtrace"
)

func main() {
	var (
		addr        = flag.String("addr", ":8545", "listen address for JSON-RPC")
		wsAddr      = flag.String("ws-addr", "", "listen address for WebSocket JSON-RPC + eth_subscribe (empty = disabled)")
		nAcc        = flag.Int("accounts", 10, "number of pre-funded accounts")
		seed        = flag.String("seed", wallet.DefaultDevSeed, "deterministic account seed")
		balance     = flag.Int64("balance", 1000, "initial balance per account (ether)")
		chainID     = flag.Uint64("chainid", 1337, "chain id")
		gasLimit    = flag.Uint64("gaslimit", 12_000_000, "block gas limit")
		datadir     = flag.String("datadir", "", "directory for the durable block log (empty = in-memory)")
		metrics     = flag.String("metrics-addr", "", "listen address for /metrics and /healthz (empty = disabled)")
		pprofOn     = flag.Bool("pprof", false, "expose /debug/pprof/ on the metrics listener")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn, error")
		traceOn     = flag.Bool("trace", true, "record cross-tier spans (export on /debug/traces)")
		traceN      = flag.Int("trace-sample", 1, "trace every Nth root request (1 = all)")
		slowTr      = flag.Duration("trace-slow", 250*time.Millisecond, "log traces slower than this (0 = off)")
		stateStore  = flag.Bool("state-store", false, "disk-backed state: bounded-memory accounts under <datadir>/state (requires -datadir)")
		stateCache  = flag.Int("state-cache", 32, "state-store read cache budget in MiB")
		snapKeep    = flag.Int("snapshots-keep", 2, "periodic state snapshots to retain on disk (>= 1; ignored with -state-store)")
		retain      = flag.Uint64("retain-blocks", 0, "block bodies kept in memory; older ones read back from the log (0 = all, requires -datadir)")
		watchOn     = flag.Bool("watch", false, "run the contract watchtower (legal_watchStatus, lifecycle metrics, alerts)")
		watchRules  = flag.String("watch-rules", "", "alert rules file, one rule per line (e.g. \"overdue > 0 for 2 blocks\")")
		rentPeriod  = flag.Uint64("watch-rent-period", 5, "blocks between rent payments before the obligation is overdue")
		maxHeadAge  = flag.Duration("max-head-age", 0, "readiness: /healthz turns 503 when the head view is older than this (0 = disabled)")
		maxWatchLag = flag.Uint64("max-watch-lag", 64, "readiness: /healthz turns 503 when the watchtower lags more than this many blocks (0 = disabled)")
	)
	flag.Parse()
	if *snapKeep < 1 {
		log.Fatal("devnet: -snapshots-keep must be >= 1")
	}
	if *stateCache < 1 {
		log.Fatal("devnet: -state-cache must be >= 1 (MiB)")
	}
	if (*stateStore || *retain > 0) && *datadir == "" {
		log.Fatal("devnet: -state-store and -retain-blocks require -datadir")
	}
	logger := obs.NewLogger(os.Stderr, obs.ParseLevel(*logLevel))
	xtrace.SetEnabled(*traceOn)
	xtrace.SetSampleEvery(*traceN)
	xtrace.SetSlowThreshold(*slowTr)
	xtrace.SetLogger(logger)

	accounts := wallet.DevAccounts(*seed, *nAcc)
	g := chain.DefaultGenesis()
	g.ChainID = *chainID
	g.GasLimit = *gasLimit
	g.Alloc = wallet.DevAlloc(accounts, ethtypes.Ether(*balance))

	var opts []chain.Option
	if *datadir != "" {
		opts = append(opts, chain.WithPersistence(chain.PersistConfig{
			DataDir:       *datadir,
			SnapshotsKeep: *snapKeep,
			StateStore:    *stateStore,
			StateCacheMB:  *stateCache,
			RetainBlocks:  *retain,
		}))
	}
	bc, err := chain.Open(g, opts...)
	if err != nil {
		log.Fatal(err)
	}

	ks := wallet.NewKeystore()
	for _, acc := range accounts {
		ks.Import(acc.Key)
	}

	fmt.Printf("legalchain devnet — chain id %d, gas limit %d\n\n", *chainID, *gasLimit)
	fmt.Println("Available accounts")
	fmt.Println("==================")
	for i, acc := range accounts {
		fmt.Printf("(%d) %s (%d ETH)\n", i, acc.Address.Hex(), *balance)
	}
	fmt.Println("\nPrivate keys")
	fmt.Println("============")
	for i, acc := range accounts {
		fmt.Printf("(%d) %s\n", i, hexutil.Encode(acc.Key.Bytes()))
	}
	if rep := bc.RecoveryReport(); rep != nil {
		fmt.Printf("\nRecovered chain from %s: head #%d", *datadir, rep.Head)
		if rep.SnapshotUsed {
			fmt.Printf(" (snapshot at #%d, %d blocks replayed)", rep.SnapshotBlock, rep.BlocksReplayed)
		}
		fmt.Println()
		if rep.Dropped() {
			fmt.Printf("  WARNING: dropped %d unverifiable blocks (%s), %d bytes of damaged log\n",
				rep.BlocksDropped, rep.DroppedReason, rep.LogDroppedBytes)
		}
	}
	fmt.Printf("\nJSON-RPC listening on %s\n", *addr)

	var tower *watch.Tower
	if *watchOn {
		var rules []watch.Rule
		if *watchRules != "" {
			text, err := os.ReadFile(*watchRules)
			if err != nil {
				log.Fatalf("devnet: -watch-rules: %v", err)
			}
			if rules, err = watch.ParseRules(string(text)); err != nil {
				log.Fatalf("devnet: -watch-rules: %v", err)
			}
		}
		watchDir := ""
		if *datadir != "" {
			watchDir = filepath.Join(*datadir, "watch")
		}
		tower, err = watch.New(bc, watch.Config{Dir: watchDir, RentPeriod: *rentPeriod, Rules: rules})
		if err != nil {
			log.Fatal(err)
		}
		tower.Start()
		fmt.Println("watchtower running (legal_watchStatus)")
	}

	rpcSrv := rpc.NewServer(bc, ks)
	rpcSrv.SetLogger(logger)
	if tower != nil {
		rpcSrv.SetWatch(tower)
	}
	srv := &http.Server{Addr: *addr, Handler: rpcSrv}
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	var wsSrv *http.Server
	if *wsAddr != "" {
		wsSrv = &http.Server{Addr: *wsAddr, Handler: http.HandlerFunc(rpcSrv.ServeWS)}
		go func() {
			fmt.Printf("WebSocket JSON-RPC listening on %s\n", *wsAddr)
			if err := wsSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Fatal(err)
			}
		}()
	}

	var opsSrv *http.Server
	if *metrics != "" {
		health := func() map[string]interface{} {
			h := obs.ChainHealth(bc)
			h["chainId"] = bc.ChainID()
			if tower != nil {
				st := tower.Status()
				h["watch"] = map[string]interface{}{
					"folded": st.Folded, "lagBlocks": st.LagBlocks,
					"tracked": st.Tracked, "alertsFiring": st.AlertsFiring,
				}
			}
			return h
		}
		ready := func() (bool, string) {
			if *maxHeadAge > 0 {
				if age := time.Since(bc.View().PublishedAt()); age > *maxHeadAge {
					return false, fmt.Sprintf("head view is %s old (max %s)", age.Round(time.Millisecond), *maxHeadAge)
				}
			}
			if tower != nil && *maxWatchLag > 0 {
				if st := tower.Status(); st.LagBlocks > *maxWatchLag {
					return false, fmt.Sprintf("watchtower %d blocks behind (max %d)", st.LagBlocks, *maxWatchLag)
				}
			}
			return true, ""
		}
		opsSrv = &http.Server{Addr: *metrics, Handler: obs.OpsHandler(*pprofOn, health, ready)}
		go func() {
			fmt.Printf("metrics listening on %s (pprof: %v)\n", *metrics, *pprofOn)
			if err := opsSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Fatal(err)
			}
		}()
	}

	// Graceful shutdown: stop accepting requests, then flush the final
	// snapshot so the next start replays nothing.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nshutting down...")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	if wsSrv != nil {
		// Hijacked WebSocket connections are invisible to Shutdown; the
		// hub close below (bc.Close) ends their subscription loops.
		wsSrv.Shutdown(ctx)
	}
	if opsSrv != nil {
		opsSrv.Shutdown(ctx)
	}
	if tower != nil {
		// Before the chain: the final fold flushes the event log and the
		// hub subscription drains before bc.Close.
		if err := tower.Close(); err != nil {
			log.Printf("watchtower close failed: %v", err)
		}
	}
	if err := bc.Close(); err != nil {
		log.Fatalf("flush failed: %v", err)
	}
}
