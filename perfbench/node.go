package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"legalchain/internal/app"
	"legalchain/internal/chain"
	"legalchain/internal/core"
	"legalchain/internal/docstore"
	"legalchain/internal/ethtypes"
	"legalchain/internal/ipfs"
	"legalchain/internal/obs"
	"legalchain/internal/rpc"
	"legalchain/internal/wallet"
	"legalchain/internal/watch"
	"legalchain/internal/web3"
	"legalchain/internal/xtrace"
)

// genesisFunds is the faucet's genesis balance, the whole supply.
var genesisFunds = ethtypes.Ether(1_000_000_000)

// node is one rental platform wired as cmd/rentald wires it at its
// default flags: durable datadir, program tracing on, watchtower on.
// REST, JSON-RPC (/rpc) and WS (/ws) share one loopback listener so a
// client connection can carry both REST and JSON-RPC requests.
type node struct {
	dir    string
	bc     *chain.Blockchain
	store  *docstore.Store
	tower  *watch.Tower
	ks     *wallet.Keystore
	faucet wallet.Account
	srv    *http.Server
	url    string
	log    *os.File
	served chan struct{}
}

// openNode starts a node on an empty dir. With tr non-nil the app and
// rpc handlers, the manager's backend and the IPFS store are wrapped
// so the tracer can time them.
func openNode(dir string, tr *tracer) (*node, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	n := &node{dir: dir, served: make(chan struct{})}
	ok := false
	defer func() {
		if !ok {
			n.close()
		}
	}()
	var err error
	if n.log, err = os.Create(filepath.Join(dir, "node.log")); err != nil {
		return nil, err
	}
	logger := obs.NewLogger(n.log, obs.ParseLevel("info"))
	xtrace.SetEnabled(true)
	xtrace.SetSampleEvery(1)
	xtrace.SetSlowThreshold(250 * time.Millisecond)
	xtrace.SetLogger(logger)

	n.faucet = wallet.DevAccounts(wallet.DefaultDevSeed, 1)[0]
	g := chain.DefaultGenesis()
	g.Alloc = wallet.DevAlloc([]wallet.Account{n.faucet}, genesisFunds)
	n.bc, err = chain.Open(g, chain.WithPersistence(chain.PersistConfig{DataDir: filepath.Join(dir, "chain")}))
	if err != nil {
		return nil, err
	}
	n.ks = wallet.NewKeystore()
	n.ks.Import(n.faucet.Key)

	var backend web3.Backend = web3.NewLocalBackend(n.bc)
	if tr != nil {
		backend = &tracedBackend{Backend: backend, t: tr}
	}
	client, err := web3.NewClient(backend, n.ks)
	if err != nil {
		return nil, err
	}
	fileStore, err := ipfs.NewFileStore(filepath.Join(dir, "ipfs"))
	if err != nil {
		return nil, err
	}
	var blobs ipfs.Store = fileStore
	if tr != nil {
		blobs = &tracedStore{Store: blobs, t: tr}
	}
	if n.store, err = docstore.Open(filepath.Join(dir, "db")); err != nil {
		return nil, err
	}
	webApp := app.New(core.NewManager(client, ipfs.NewNode(blobs), n.store))
	webApp.Faucet = n.faucet.Address

	n.tower, err = watch.New(n.bc, watch.Config{Dir: filepath.Join(dir, "watch"), RentPeriod: 5})
	if err != nil {
		return nil, err
	}
	n.tower.Start()
	webApp.Watch = n.tower

	rpcSrv := rpc.NewServer(n.bc, n.ks)
	rpcSrv.SetLogger(logger)
	rpcSrv.SetWatch(n.tower)

	var appH, rpcH http.Handler = obs.LogRequests(logger, webApp.Handler()), rpcSrv
	if tr != nil {
		appH = traceHandler(tr, "app.", appH)
		rpcH = traceHandler(tr, "rpc.", rpcH)
	}
	mux := http.NewServeMux()
	mux.Handle("/rpc", rpcH)
	mux.HandleFunc("/ws", rpcSrv.ServeWS)
	mux.Handle("/", appH)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n.url = "http://" + ln.Addr().String()
	n.srv = &http.Server{Handler: mux}
	go func() {
		defer close(n.served)
		if err := n.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
		}
	}()
	ok = true
	return n, nil
}

// close stops the server, then the tower before the chain (the tower
// drains its hub subscription), then the stores, and waits for the
// serving goroutine.
func (n *node) close() error {
	var errs []error
	if n.srv != nil {
		errs = append(errs, n.srv.Close())
		<-n.served
	}
	if n.tower != nil {
		errs = append(errs, n.tower.Close())
	}
	if n.bc != nil {
		errs = append(errs, n.bc.Close())
	}
	if n.store != nil {
		errs = append(errs, n.store.Close())
	}
	if n.log != nil {
		errs = append(errs, n.log.Close())
	}
	return errors.Join(errs...)
}
