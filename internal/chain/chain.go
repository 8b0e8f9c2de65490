// Package chain implements the devnet blockchain: an instant-seal chain
// in the role Ganache plays in the paper's stack (Table I) — a local
// Ethereum node that accepts signed transactions, executes them on the
// EVM, mines a block per transaction, and serves receipts, logs and
// state queries.
package chain

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"legalchain/internal/abi"
	"legalchain/internal/blockdb"
	"legalchain/internal/ethtypes"
	"legalchain/internal/evm"
	"legalchain/internal/state"
	"legalchain/internal/statestore"
	"legalchain/internal/uint256"
	"legalchain/internal/xtrace"
)

// Errors returned by transaction admission and execution.
var (
	ErrNonceTooLow       = errors.New("chain: nonce too low")
	ErrNonceTooHigh      = errors.New("chain: nonce too high")
	ErrInsufficientFunds = errors.New("chain: insufficient funds for gas * price + value")
	ErrIntrinsicGas      = errors.New("chain: intrinsic gas exceeds gas limit")
	ErrGasLimitExceeded  = errors.New("chain: transaction exceeds block gas limit")
	ErrKnownTransaction  = errors.New("chain: already known transaction")
)

// Genesis configures the initial chain state.
type Genesis struct {
	ChainID   uint64
	GasLimit  uint64
	Timestamp uint64
	Coinbase  ethtypes.Address
	// Alloc pre-funds accounts.
	Alloc map[ethtypes.Address]uint256.Int
}

// DefaultGenesis returns a devnet genesis with sensible defaults.
func DefaultGenesis() *Genesis {
	return &Genesis{
		ChainID:   1337,
		GasLimit:  12_000_000,
		Timestamp: 1_700_000_000,
		Coinbase:  ethtypes.HexToAddress("0x0000000000000000000000000000000000c0ffee"),
		Alloc:     map[ethtypes.Address]uint256.Int{},
	}
}

// Blockchain is the devnet chain. All methods are safe for concurrent
// use. Reads resolve lock-free against the published head view (see
// view.go); bc.mu is a writer-only lock serialising the sealing paths
// (SendTransaction, MineBlock), time adjustment and persistence.
type Blockchain struct {
	mu sync.Mutex // writer-only; reads never take it

	chainID  uint64
	gasLimit uint64
	coinbase ethtypes.Address

	// Writer-owned canonical chain. blocks and allLogs are shared with
	// published views: appends never overwrite a published element, and
	// cold-data eviction replaces the slice headers with reallocated
	// suffixes (never truncating in place), so a published view's slices
	// stay intact. The hash indexes are persistent generation chains
	// whose published generations are immutable; byHash maps to block
	// numbers (not bodies) so evicted blocks don't stay pinned.
	st       *state.StateDB
	blocks   []*ethtypes.Block // blocks[i] is block number blocksBase+i
	byHash   *pindex[uint64]
	receipts *pindex[*ethtypes.Receipt]
	txs      *pindex[*ethtypes.Transaction]
	allLogs  []*ethtypes.Log
	pending  []*ethtypes.Transaction // batch-mining queue (SubmitTransaction)
	// pendingSet mirrors pending's hashes for O(1) duplicate checks.
	pendingSet map[ethtypes.Hash]struct{}

	timeOffset uint64 // AdjustTime accumulates here; the next seal consumes it

	// view is the immutable read path: republished by every seal,
	// recovery and time adjustment.
	view atomic.Pointer[HeadView]

	// hub is the push tier (hub.go): each published view and admitted
	// transaction is enqueued O(1) and fanned out to subscribers off the
	// seal path.
	hub *hub

	// Durable persistence (nil / zero for a memory-only chain); see
	// persist.go.
	db           *blockdb.Log
	snapInterval uint64
	snapKeep     int
	persistErr   error
	recovery     *RecoveryReport

	// Disk-backed state and cold-data eviction (nil / zero unless
	// PersistConfig.StateStore): every block commits its state batch to
	// stateStore under a monotonic generation, the live state keeps at
	// most maxResident clean account objects between blocks, and block
	// bodies older than retainBlocks evict to the block log (blocksBase
	// is the number of the first resident block).
	stateStore   *statestore.Store
	stateGen     atomic.Uint64
	maxResident  int
	retainBlocks uint64
	blocksBase   uint64

	// Historical tracing (trace.go): the retained genesis rebuilds
	// pre-block state from scratch, dataDir locates persisted snapshots
	// that bound the replay. Both are immutable after construction.
	genesis *Genesis
	dataDir string
}

// New creates a memory-only chain from the genesis. Use Open with
// WithPersistence for a chain that survives restarts.
func New(g *Genesis) *Blockchain {
	return newMemory(g)
}

// genesisState builds the pre-funded world state and the genesis block.
func genesisState(g *Genesis) (*state.StateDB, *ethtypes.Block) {
	st := state.New()
	for addr, bal := range g.Alloc {
		st.AddBalance(addr, bal)
	}
	st.Finalise()
	genesisHeader := &ethtypes.Header{
		Number:    0,
		Time:      g.Timestamp,
		GasLimit:  g.GasLimit,
		Coinbase:  g.Coinbase,
		StateRoot: st.Root(),
	}
	return st, &ethtypes.Block{Header: genesisHeader}
}

func newMemory(g *Genesis) *Blockchain {
	st, genesisBlock := genesisState(g)
	bc := &Blockchain{
		chainID:  g.ChainID,
		gasLimit: g.GasLimit,
		coinbase: g.Coinbase,
		st:       st,
		blocks:   []*ethtypes.Block{genesisBlock},
		byHash:   (*pindex[uint64])(nil).with1(genesisBlock.Hash(), 0),
		genesis:  copyGenesis(g),
		hub:      newHub(),
	}
	bc.publishHeadLocked()
	return bc
}

// copyGenesis snapshots g so later caller mutations of the Alloc map
// cannot skew historical replays.
func copyGenesis(g *Genesis) *Genesis {
	c := *g
	c.Alloc = make(map[ethtypes.Address]uint256.Int, len(g.Alloc))
	for a, b := range g.Alloc {
		c.Alloc[a] = b
	}
	return &c
}

// ChainID returns the chain identifier used for EIP-155 signing.
func (bc *Blockchain) ChainID() uint64 { return bc.chainID }

// GasLimit returns the block gas limit.
func (bc *Blockchain) GasLimit() uint64 { return bc.gasLimit }

// Head returns the latest sealed block (lock-free, from the head view).
func (bc *Blockchain) Head() *ethtypes.Block { return bc.View().Head() }

// BlockNumber returns the current height.
func (bc *Blockchain) BlockNumber() uint64 { return bc.View().BlockNumber() }

// BlockByNumber returns a block by height.
func (bc *Blockchain) BlockByNumber(n uint64) (*ethtypes.Block, bool) {
	return bc.View().BlockByNumber(n)
}

// BlockByHash returns a block by hash.
func (bc *Blockchain) BlockByHash(h ethtypes.Hash) (*ethtypes.Block, bool) {
	return bc.View().BlockByHash(h)
}

// GetBalance returns the current balance of addr.
func (bc *Blockchain) GetBalance(addr ethtypes.Address) uint256.Int {
	return bc.View().GetBalance(addr)
}

// GetNonce returns the next expected nonce for addr.
func (bc *Blockchain) GetNonce(addr ethtypes.Address) uint64 {
	return bc.View().GetNonce(addr)
}

// GetCode returns the contract code at addr.
func (bc *Blockchain) GetCode(addr ethtypes.Address) []byte {
	return bc.View().GetCode(addr)
}

// GetStorageAt reads one storage slot.
func (bc *Blockchain) GetStorageAt(addr ethtypes.Address, slot ethtypes.Hash) uint256.Int {
	return bc.View().GetStorageAt(addr, slot)
}

// GetReceipt returns the receipt of a mined transaction.
func (bc *Blockchain) GetReceipt(txHash ethtypes.Hash) (*ethtypes.Receipt, bool) {
	return bc.View().GetReceipt(txHash)
}

// GetTransaction returns a mined transaction by hash.
func (bc *Blockchain) GetTransaction(txHash ethtypes.Hash) (*ethtypes.Transaction, bool) {
	return bc.View().GetTransaction(txHash)
}

// StateRoot returns the current world-state root.
func (bc *Blockchain) StateRoot() ethtypes.Hash { return bc.View().StateRoot() }

// AdjustTime shifts the next block's timestamp forward by seconds
// (evm_increaseTime equivalent), letting tests exercise time-dependent
// contract clauses.
func (bc *Blockchain) AdjustTime(seconds uint64) {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	bc.timeOffset += seconds
	// Republish so lock-free speculative calls see the shifted clock.
	bc.publishHeadLocked()
}

// nextHeaderLocked prepares the header for the block being mined.
func (bc *Blockchain) nextHeaderLocked() *ethtypes.Header {
	parent := bc.blocks[len(bc.blocks)-1]
	return &ethtypes.Header{
		ParentHash: parent.Hash(),
		Number:     parent.Number() + 1,
		Time:       parent.Header.Time + 1 + bc.timeOffset,
		GasLimit:   bc.gasLimit,
		Coinbase:   bc.coinbase,
	}
}

// execEnv is everything execTransaction needs to run one transaction:
// the state it mutates, the chain parameters, the BLOCKHASH source and
// an optional tracer. The live sealing paths build one over bc.st under
// bc.mu; historical replay (trace.go) builds one over a scratch state
// rebuilt from a snapshot, with a tracer attached.
type execEnv struct {
	chainID      uint64
	st           *state.StateDB
	getBlockHash func(uint64) ethtypes.Hash
	tracer       evm.Tracer
}

// SendTransaction validates, executes and instantly mines tx into a new
// block, returning its hash. The transaction must be EIP-155 signed for
// this chain.
func (bc *Blockchain) SendTransaction(tx *ethtypes.Transaction) (ethtypes.Hash, error) {
	return bc.SendTransactionCtx(context.Background(), tx)
}

// SendTransactionCtx is SendTransaction with span propagation: when ctx
// carries a sampled trace, the seal pipeline (execute, state root,
// journal append) shows up as child spans.
func (bc *Blockchain) SendTransactionCtx(ctx context.Context, tx *ethtypes.Transaction) (ethtypes.Hash, error) {
	ctx, sp := xtrace.Start(ctx, "chain", "sendTransaction")
	defer sp.End()
	sealStart := time.Now()
	bc.mu.Lock()
	defer bc.mu.Unlock()

	hash := tx.Hash()
	if _, known := bc.txs.get(hash); known {
		return hash, ErrKnownTransaction
	}
	sender, err := tx.Sender(bc.chainID)
	if err != nil {
		return ethtypes.Hash{}, fmt.Errorf("chain: invalid signature: %w", err)
	}
	if tx.Gas > bc.gasLimit {
		return ethtypes.Hash{}, ErrGasLimitExceeded
	}
	if expected := bc.st.GetNonce(sender); tx.Nonce != expected {
		return ethtypes.Hash{}, fmt.Errorf("%w: have %d, want %d", nonceErr(tx.Nonce, expected), tx.Nonce, expected)
	}

	// The transaction is admitted: let newPendingTransactions watchers
	// know before it seals (O(1), never blocks).
	bc.hub.enqueue(Event{TxHash: hash})

	// A transaction that fails execution (insufficient funds, intrinsic
	// gas) leaves the state untouched and seals nothing, so a pending
	// AdjustTime offset survives for the next block.
	header := bc.nextHeaderLocked()
	included, receipts, failed := bc.executeLocked(ctx, header, []txMeta{{tx: tx, sender: sender}})
	if err := failed[hash]; err != nil {
		sp.SetError(err)
		return ethtypes.Hash{}, err
	}
	bc.sealLocked(ctx, header, included, receipts, sealStart)
	sp.SetAttr("block", fmt.Sprintf("%d", header.Number))
	sp.SetAttr("tx", hash.Hex())
	return hash, nil
}

// applyTransaction executes tx against the live state under bc.mu.
func (bc *Blockchain) applyTransaction(ctx context.Context, header *ethtypes.Header, tx *ethtypes.Transaction, sender ethtypes.Address) (*ethtypes.Receipt, error) {
	env := &execEnv{chainID: bc.chainID, st: bc.st, getBlockHash: bc.blockHashLocked}
	return execTransaction(ctx, env, header, tx, sender)
}

// execTransaction executes tx against env.st, following the yellow-paper
// gas flow (buy gas, execute, refund, pay coinbase). It is the single
// execution routine shared by live sealing, crash-recovery replay and
// historical tracing, so a replayed transaction is byte-identical to its
// original run.
func execTransaction(ctx context.Context, env *execEnv, header *ethtypes.Header, tx *ethtypes.Transaction, sender ethtypes.Address) (*ethtypes.Receipt, error) {
	execStart := time.Now()
	defer mExecSeconds.ObserveSince(execStart)
	intrinsic := evm.IntrinsicGas(tx.Data, tx.IsCreate())
	if tx.Gas < intrinsic {
		return nil, fmt.Errorf("%w: need %d, limit %d", ErrIntrinsicGas, intrinsic, tx.Gas)
	}
	gasCost := tx.GasPrice.Mul(uint256.NewUint64(tx.Gas))
	total := gasCost.Add(tx.Value)
	if env.st.GetBalance(sender).Lt(total) {
		return nil, ErrInsufficientFunds
	}
	// Buy gas.
	env.st.SubBalance(sender, gasCost)

	machine := evm.New(evm.Context{
		ChainID:      env.chainID,
		BlockNumber:  header.Number,
		Time:         header.Time,
		Coinbase:     header.Coinbase,
		GasLimit:     header.GasLimit,
		GasPrice:     tx.GasPrice,
		Origin:       sender,
		GetBlockHash: env.getBlockHash,
	}, env.st)
	machine.Tracer = env.tracer
	execGas := tx.Gas - intrinsic

	var (
		ret          []byte
		leftGas      uint64
		vmErr        error
		contractAddr *ethtypes.Address
	)
	kind := "call"
	if tx.IsCreate() {
		kind = "create"
	}
	_, evmSp := xtrace.Start(ctx, "evm", kind)
	if tx.IsCreate() {
		var addr ethtypes.Address
		ret, addr, leftGas, vmErr = machine.Create(sender, tx.Data, execGas, tx.Value)
		if vmErr == nil {
			contractAddr = &addr
		}
	} else {
		env.st.SetNonce(sender, tx.Nonce+1)
		ret, leftGas, vmErr = machine.Call(sender, *tx.To, tx.Data, execGas, tx.Value)
	}
	evmSp.SetError(vmErr)

	gasUsed := tx.Gas - leftGas
	// Refund counter capped at half the gas used.
	refund := env.st.GetRefund()
	if refund > gasUsed/2 {
		refund = gasUsed / 2
	}
	gasUsed -= refund
	evmSp.SetAttr("gasUsed", fmt.Sprintf("%d", gasUsed))
	evmSp.End()
	// Return unused gas, pay the coinbase.
	env.st.AddBalance(sender, tx.GasPrice.Mul(uint256.NewUint64(tx.Gas-gasUsed)))
	env.st.AddBalance(header.Coinbase, tx.GasPrice.Mul(uint256.NewUint64(gasUsed)))

	status := ethtypes.ReceiptStatusSuccessful
	reason := ""
	if vmErr != nil {
		status = ethtypes.ReceiptStatusFailed
		if r, ok := abi.UnpackRevertReason(ret); ok {
			reason = r
		} else if errors.Is(vmErr, evm.ErrExecutionReverted) && len(ret) == 0 {
			reason = "reverted"
		} else {
			reason = vmErr.Error()
		}
	}
	logs := env.st.TakeLogs()
	if vmErr != nil {
		logs = nil
	}
	for _, l := range logs {
		l.BlockNumber = header.Number
		l.TxHash = tx.Hash()
	}
	env.st.Finalise()

	// Position fields (indexes, cumulative gas) are the caller's to
	// stamp; see stampReceipt.
	return &ethtypes.Receipt{
		TxHash:          tx.Hash(),
		BlockNumber:     header.Number,
		From:            sender,
		To:              tx.To,
		ContractAddress: contractAddr,
		GasUsed:         gasUsed,
		Status:          status,
		Logs:            logs,
		RevertReason:    reason,
	}, nil
}

// RevertError is the typed error for a reverted call or gas estimate.
// Ret carries the raw return bytes (the ABI-encoded Error(string)
// payload when a reason was given), which the RPC layer exposes in the
// JSON-RPC error's data field per the geth convention.
type RevertError struct {
	Reason string
	Ret    []byte
}

// Error keeps the canonical "execution reverted[: reason]" shape that
// clients match on.
func (e *RevertError) Error() string {
	if e.Reason == "" {
		return "execution reverted"
	}
	return "execution reverted: " + e.Reason
}

// CallResult is the outcome of a read-only call.
type CallResult struct {
	Return  []byte
	GasUsed uint64
	Err     error
	Reason  string // decoded revert reason, if any
}

// Revert returns a typed *RevertError when the call ended in a REVERT,
// nil for success or any other failure (out of gas, stack error, ...).
func (res *CallResult) Revert() *RevertError {
	if res.Err == nil || !errors.Is(res.Err, evm.ErrExecutionReverted) {
		return nil
	}
	return &RevertError{Reason: res.Reason, Ret: res.Return}
}

// Call executes a read-only message against the published head view
// (eth_call semantics). Lock-free; see HeadView.Call.
func (bc *Blockchain) Call(from ethtypes.Address, to *ethtypes.Address, data []byte, value uint256.Int, gas uint64) *CallResult {
	return bc.View().Call(from, to, data, value, gas)
}

// CallCtx is Call with span propagation; see HeadView.CallCtx.
func (bc *Blockchain) CallCtx(ctx context.Context, from ethtypes.Address, to *ethtypes.Address, data []byte, value uint256.Int, gas uint64) *CallResult {
	return bc.View().CallCtx(ctx, from, to, data, value, gas)
}

// EstimateGas executes the message against the published head view and
// returns the gas it consumed plus the intrinsic cost, padded slightly
// the way development nodes do.
func (bc *Blockchain) EstimateGas(from ethtypes.Address, to *ethtypes.Address, data []byte, value uint256.Int) (uint64, error) {
	return bc.View().EstimateGas(from, to, data, value)
}

// FilterQuery selects logs (eth_getLogs semantics; nil fields match
// anything).
type FilterQuery struct {
	FromBlock uint64
	ToBlock   *uint64 // nil = latest
	Addresses []ethtypes.Address
	Topics    [][]ethtypes.Hash // position-indexed alternatives
}

// FilterLogs returns all mined logs matching q, in order. The result
// is owned by an immutable head view — a concurrent seal can never be
// observed mid-append.
func (bc *Blockchain) FilterLogs(q FilterQuery) []*ethtypes.Log {
	return bc.View().FilterLogs(q)
}

func containsAddr(list []ethtypes.Address, a ethtypes.Address) bool {
	for _, x := range list {
		if x == a {
			return true
		}
	}
	return false
}

func topicsMatch(query [][]ethtypes.Hash, topics []ethtypes.Hash) bool {
	for i, alts := range query {
		if len(alts) == 0 {
			continue
		}
		if i >= len(topics) {
			return false
		}
		found := false
		for _, alt := range alts {
			if topics[i] == alt {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// TotalSupply sums all balances — the ether-conservation observable used
// by tests (coinbase included).
func (bc *Blockchain) TotalSupply() uint256.Int { return bc.View().TotalSupply() }
