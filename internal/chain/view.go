package chain

import (
	"context"
	"fmt"
	"time"

	"legalchain/internal/abi"
	"legalchain/internal/blockdb"
	"legalchain/internal/ethtypes"
	"legalchain/internal/evm"
	"legalchain/internal/state"
	"legalchain/internal/uint256"
	"legalchain/internal/xtrace"
)

// Lock-free read path. On every seal (and on recovery and time
// adjustment) the writer publishes an immutable HeadView through an
// atomic pointer: the sealed head block, a frozen copy-on-write state
// snapshot, and persistent (structurally shared) indexes over blocks,
// transactions, receipts and logs. Readers load the pointer once and
// resolve entirely against the view — no mutex, no map shared with the
// writer — so a landlord deploying a contract (SendTransaction holds
// bc.mu across EVM execution, state-root hashing and fsync) never
// stalls a tenant's dashboard query.
//
// Safety rests on three invariants:
//
//  1. Everything reachable from a view is immutable once published.
//     The state snapshot is Freeze()-d (mutators panic), blocks,
//     receipts and logs are never touched after their seal, and the
//     index generations are never mutated after linking.
//  2. The blocks and logs slices are shared with the writer, which only
//     ever appends. A view captures the slice value (pointer, length);
//     appends either write past every published length or reallocate,
//     so no published element is ever overwritten.
//  3. bc.view.Store has release semantics and View()'s Load acquire
//     semantics, ordering the seal's writes before any reader's reads.

// pindexMaxDepth bounds the generation chain of a persistent index.
// Lookups walk at most this many small maps; when a new generation
// would exceed it, the chain is flattened into one map (amortised
// O(size/depth) per seal).
const pindexMaxDepth = 32

// pindex is a persistent hash index: an immutable generation chain
// where each seal adds one small generation on top of the previous
// ones. Readers walk newest-to-oldest; the writer replaces its tip
// pointer with a child generation, never mutating published ones.
type pindex[V any] struct {
	parent *pindex[V]
	m      map[ethtypes.Hash]V
	depth  int
	size   int
}

// get returns the newest value for k.
func (p *pindex[V]) get(k ethtypes.Hash) (V, bool) {
	for n := p; n != nil; n = n.parent {
		if v, ok := n.m[k]; ok {
			return v, true
		}
	}
	var zero V
	return zero, false
}

// count returns the number of entries (assuming distinct keys per
// generation, which holds: keys are transaction/block hashes inserted
// exactly once).
func (p *pindex[V]) count() int {
	if p == nil {
		return 0
	}
	return p.size
}

// with returns a new generation holding p's entries plus m. m must not
// be mutated afterwards — it becomes part of the immutable chain.
func (p *pindex[V]) with(m map[ethtypes.Hash]V) *pindex[V] {
	if len(m) == 0 {
		return p
	}
	if p != nil && p.depth+1 < pindexMaxDepth {
		return &pindex[V]{parent: p, m: m, depth: p.depth + 1, size: p.size + len(m)}
	}
	// Flatten: copy oldest-first so newer generations win.
	var gens []*pindex[V]
	for n := p; n != nil; n = n.parent {
		gens = append(gens, n)
	}
	flat := make(map[ethtypes.Hash]V, p.count()+len(m))
	for i := len(gens) - 1; i >= 0; i-- {
		for k, v := range gens[i].m {
			flat[k] = v
		}
	}
	for k, v := range m {
		flat[k] = v
	}
	return &pindex[V]{m: flat, size: len(flat)}
}

// with1 is with for a single entry.
func (p *pindex[V]) with1(k ethtypes.Hash, v V) *pindex[V] {
	return p.with(map[ethtypes.Hash]V{k: v})
}

// HeadView is an immutable, point-in-time view of the chain at a sealed
// head. All methods are lock-free and safe for unlimited concurrency;
// every read within one view observes the same (block, state-root)
// pair. Obtain one from Blockchain.View.
type HeadView struct {
	chainID  uint64
	gasLimit uint64
	coinbase ethtypes.Address

	head     *ethtypes.Block
	blocks   []*ethtypes.Block // blocks[i] is block blocksBase+i; frozen, writer appends past len
	st       *state.StateDB    // frozen (state.Freeze) snapshot at head
	byHash   *pindex[uint64]   // block hash → number (resident or evicted)
	receipts *pindex[*ethtypes.Receipt]
	txs      *pindex[*ethtypes.Transaction]
	logs     []*ethtypes.Log // same sharing as blocks; logs of evicted blocks live in db

	// Cold-data read-through: blocks (and their logs) older than
	// blocksBase were evicted from memory and are served from the block
	// log. db reads are lock-free (positional pread on sealed segments).
	db         *blockdb.Log
	blocksBase uint64

	timeOffset uint64 // pending AdjustTime offset for speculative headers
	published  time.Time
}

// Head returns the view's sealed head block.
func (v *HeadView) Head() *ethtypes.Block {
	mViewReads.Inc()
	return v.head
}

// BlockNumber returns the view's height.
func (v *HeadView) BlockNumber() uint64 { return v.head.Number() }

// StateRoot returns the world-state root at the view's head. It always
// equals Head().Header.StateRoot — the view is coherent by construction.
func (v *HeadView) StateRoot() ethtypes.Hash {
	mViewReads.Inc()
	return v.st.Root()
}

// State returns the frozen state snapshot at the view's head. Mutating
// it panics; Copy() it for speculative execution.
func (v *HeadView) State() *state.StateDB { return v.st }

// PublishedAt returns when the view was published.
func (v *HeadView) PublishedAt() time.Time { return v.published }

// BlockByNumber returns a block by height. Blocks evicted from memory
// read back through the block log.
func (v *HeadView) BlockByNumber(n uint64) (*ethtypes.Block, bool) {
	mViewReads.Inc()
	if n >= v.blocksBase+uint64(len(v.blocks)) {
		return nil, false
	}
	if n >= v.blocksBase {
		return v.blocks[n-v.blocksBase], true
	}
	if v.db == nil {
		return nil, false
	}
	rec, err := v.db.ReadRecord(n)
	if err != nil {
		return nil, false
	}
	mBlockReadThrough.Inc()
	return rec.Block(), true
}

// BlockByHash returns a block by hash.
func (v *HeadView) BlockByHash(h ethtypes.Hash) (*ethtypes.Block, bool) {
	mViewReads.Inc()
	n, ok := v.byHash.get(h)
	if !ok {
		return nil, false
	}
	return v.BlockByNumber(n)
}

// GetBalance returns the balance of addr at the view's head.
func (v *HeadView) GetBalance(addr ethtypes.Address) uint256.Int {
	mViewReads.Inc()
	return v.st.GetBalance(addr)
}

// GetNonce returns the next expected nonce for addr at the view's head.
func (v *HeadView) GetNonce(addr ethtypes.Address) uint64 {
	mViewReads.Inc()
	return v.st.GetNonce(addr)
}

// GetCode returns the contract code at addr.
func (v *HeadView) GetCode(addr ethtypes.Address) []byte {
	mViewReads.Inc()
	return v.st.GetCode(addr)
}

// GetStorageAt reads one storage slot at the view's head.
func (v *HeadView) GetStorageAt(addr ethtypes.Address, slot ethtypes.Hash) uint256.Int {
	mViewReads.Inc()
	return v.st.GetState(addr, slot)
}

// GetReceipt returns the receipt of a transaction mined at or before
// the view's head.
func (v *HeadView) GetReceipt(txHash ethtypes.Hash) (*ethtypes.Receipt, bool) {
	mViewReads.Inc()
	return v.receipts.get(txHash)
}

// ReceiptsOf returns the receipts of block n in transaction order.
// Resident blocks resolve through the receipt index; evicted blocks
// read the persisted record, which carries its receipts verbatim.
// Consumers folding whole blocks (the watchtower) use this instead of
// per-hash GetReceipt lookups.
func (v *HeadView) ReceiptsOf(n uint64) []*ethtypes.Receipt {
	mViewReads.Inc()
	if n < v.blocksBase {
		if v.db == nil {
			return nil
		}
		rec, err := v.db.ReadRecord(n)
		if err != nil {
			return nil
		}
		mBlockReadThrough.Inc()
		return rec.Receipts
	}
	b, ok := v.BlockByNumber(n)
	if !ok || len(b.Transactions) == 0 {
		return nil
	}
	out := make([]*ethtypes.Receipt, 0, len(b.Transactions))
	for _, tx := range b.Transactions {
		if r, ok := v.receipts.get(tx.Hash()); ok {
			out = append(out, r)
		}
	}
	return out
}

// GetTransaction returns a mined transaction by hash.
func (v *HeadView) GetTransaction(txHash ethtypes.Hash) (*ethtypes.Transaction, bool) {
	mViewReads.Inc()
	return v.txs.get(txHash)
}

// TotalSupply sums all balances at the view's head.
func (v *HeadView) TotalSupply() uint256.Int {
	mViewReads.Inc()
	return v.st.TotalBalance()
}

// FilterLogs returns the mined logs matching q, in order. The result is
// owned by the view: logs sealed after the view was published are never
// observed, even mid-append.
func (v *HeadView) FilterLogs(q FilterQuery) []*ethtypes.Log {
	mViewReads.Inc()
	to := v.head.Number()
	if q.ToBlock != nil {
		to = *q.ToBlock
	}
	var out []*ethtypes.Log
	// Evicted range first (log order is block order): logs of blocks
	// below blocksBase read back through their journaled receipts.
	if v.db != nil && v.blocksBase > 0 && q.FromBlock < v.blocksBase {
		for n := max(q.FromBlock, 1); n < v.blocksBase && n <= to; n++ {
			rec, err := v.db.ReadRecord(n)
			if err != nil {
				continue
			}
			mBlockReadThrough.Inc()
			for _, rcpt := range rec.Receipts {
				for _, l := range rcpt.Logs {
					if logMatches(q, l, to) {
						out = append(out, l)
					}
				}
			}
		}
	}
	for _, l := range v.logs {
		if logMatches(q, l, to) {
			out = append(out, l)
		}
	}
	return out
}

// logMatches reports whether l satisfies q's range, address and topic
// constraints (to is the resolved upper block bound).
func logMatches(q FilterQuery, l *ethtypes.Log, to uint64) bool {
	if l.BlockNumber < q.FromBlock || l.BlockNumber > to {
		return false
	}
	if len(q.Addresses) > 0 && !containsAddr(q.Addresses, l.Address) {
		return false
	}
	return topicsMatch(q.Topics, l.Topics)
}

// nextHeader prepares the speculative header for a call executed on top
// of the view's head (eth_call block-context semantics).
func (v *HeadView) nextHeader() *ethtypes.Header {
	return &ethtypes.Header{
		ParentHash: v.head.Hash(),
		Number:     v.head.Number() + 1,
		Time:       v.head.Header.Time + 1 + v.timeOffset,
		GasLimit:   v.gasLimit,
		Coinbase:   v.coinbase,
	}
}

// evmContext builds the execution context for a speculative call; the
// BLOCKHASH lookup resolves against the view's own block index.
func (v *HeadView) evmContext(h *ethtypes.Header, origin ethtypes.Address, gasPrice uint256.Int) evm.Context {
	return evm.Context{
		ChainID:     v.chainID,
		BlockNumber: h.Number,
		Time:        h.Time,
		Coinbase:    h.Coinbase,
		GasLimit:    h.GasLimit,
		GasPrice:    gasPrice,
		Origin:      origin,
		GetBlockHash: func(n uint64) ethtypes.Hash {
			if b, ok := v.BlockByNumber(n); ok {
				return b.Hash()
			}
			return ethtypes.Hash{}
		},
	}
}

// Call executes a read-only message against a mutable copy of the
// view's frozen state (eth_call semantics). Entirely lock-free.
func (v *HeadView) Call(from ethtypes.Address, to *ethtypes.Address, data []byte, value uint256.Int, gas uint64) *CallResult {
	return v.CallCtx(context.Background(), from, to, data, value, gas)
}

// CallCtx is Call with span propagation: when ctx carries a sampled
// trace, the call and its EVM execution show up as child spans.
func (v *HeadView) CallCtx(ctx context.Context, from ethtypes.Address, to *ethtypes.Address, data []byte, value uint256.Int, gas uint64) *CallResult {
	ctx, sp := xtrace.Start(ctx, "chain", "call")
	defer sp.End()
	callStart := time.Now()
	defer mCallSeconds.ObserveSince(callStart)
	mViewReads.Inc()
	// An overlay materialises only the accounts the call touches —
	// O(touched) instead of Copy's O(all accounts).
	stCopy := v.st.Overlay()
	header := v.nextHeader()

	if gas == 0 {
		gas = v.gasLimit
	}
	// Give the caller a balance so value-bearing eth_calls don't fail
	// spuriously (ganache behaviour).
	stCopy.AddBalance(from, ethtypes.Ether(1_000_000_000))
	machine := evm.New(v.evmContext(header, from, uint256.Zero), stCopy)

	var ret []byte
	var left uint64
	var err error
	_, evmSp := xtrace.Start(ctx, "evm", "call")
	if to == nil {
		ret, _, left, err = machine.Create(from, data, gas, value)
	} else {
		ret, left, err = machine.Call(from, *to, data, gas, value)
	}
	evmSp.SetError(err)
	evmSp.SetAttr("gasUsed", fmt.Sprintf("%d", gas-left))
	evmSp.End()
	res := &CallResult{Return: ret, GasUsed: gas - left, Err: err}
	if err != nil {
		sp.SetError(err)
		if reason, ok := abi.UnpackRevertReason(ret); ok {
			res.Reason = reason
		}
	}
	return res
}

// EstimateGas executes the message against the view and returns the gas
// it consumed plus the intrinsic cost, padded the way development nodes
// do. The estimate and the execution resolve against the same view.
func (v *HeadView) EstimateGas(from ethtypes.Address, to *ethtypes.Address, data []byte, value uint256.Int) (uint64, error) {
	res := v.Call(from, to, data, value, v.gasLimit)
	if res.Err != nil {
		if re := res.Revert(); re != nil {
			return 0, re
		}
		return 0, res.Err
	}
	est := evm.IntrinsicGas(data, to == nil) + res.GasUsed
	est += est / 5 // 20% headroom, matching common devnet practice
	if est > v.gasLimit {
		est = v.gasLimit
	}
	return est, nil
}

// TraceCall executes a read-only message with a structured tracer
// attached — the debug_traceCall facility, lock-free.
func (v *HeadView) TraceCall(from ethtypes.Address, to *ethtypes.Address, data []byte, gas uint64) (*CallResult, *evm.StructLogger) {
	mViewReads.Inc()
	stCopy := v.st.Overlay()
	header := v.nextHeader()

	if gas == 0 {
		gas = v.gasLimit
	}
	stCopy.AddBalance(from, ethtypes.Ether(1_000_000_000))
	machine := evm.New(v.evmContext(header, from, uint256.Zero), stCopy)
	tracer := evm.NewStructLogger()
	machine.Tracer = tracer

	var ret []byte
	var left uint64
	var err error
	if to == nil {
		ret, _, left, err = machine.Create(from, data, gas, uint256.Zero)
	} else {
		ret, left, err = machine.Call(from, *to, data, gas, uint256.Zero)
	}
	res := &CallResult{Return: ret, GasUsed: gas - left, Err: err}
	if err != nil {
		if reason, ok := abi.UnpackRevertReason(ret); ok {
			res.Reason = reason
		}
	}
	return res, tracer
}

// View returns the current head view. The returned view is immutable —
// it keeps answering for its head even while later blocks seal — so
// callers needing several reads at one consistent height should load it
// once and reuse it.
func (bc *Blockchain) View() *HeadView {
	return bc.view.Load()
}

// publishHeadLocked freezes the current state and atomically publishes
// a new immutable head view. Called with bc.mu held by the seal, at
// construction/recovery, and on time adjustment. Republishing the same
// head (AdjustTime) reuses the previous frozen snapshot.
func (bc *Blockchain) publishHeadLocked() {
	head := bc.blocks[len(bc.blocks)-1]
	var frozen *state.StateDB
	if prev := bc.view.Load(); prev != nil && prev.head == head {
		frozen = prev.st
	} else {
		frozen = bc.st.Copy()
		frozen.Freeze()
	}
	now := time.Now()
	v := &HeadView{
		chainID:    bc.chainID,
		gasLimit:   bc.gasLimit,
		coinbase:   bc.coinbase,
		head:       head,
		blocks:     bc.blocks,
		st:         frozen,
		byHash:     bc.byHash,
		receipts:   bc.receipts,
		txs:        bc.txs,
		logs:       bc.allLogs,
		db:         bc.db,
		blocksBase: bc.blocksBase,
		timeOffset: bc.timeOffset,
		published:  now,
	}
	bc.view.Store(v)
	// Hand the view to the subscription hub: one O(1) enqueue, fanned
	// out to subscriber rings off the seal path (hub.go).
	bc.hub.enqueue(Event{View: v})
	mViewsPublished.Inc()
	lastViewPublishNanos.Store(now.UnixNano())
}
