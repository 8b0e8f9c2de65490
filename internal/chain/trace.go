package chain

import (
	"context"
	"errors"
	"fmt"

	"legalchain/internal/blockdb"
	"legalchain/internal/ethtypes"
	"legalchain/internal/evm"
	"legalchain/internal/state"
	"legalchain/internal/xtrace"
)

// Historical transaction tracing (debug_traceTransaction semantics): a
// mined transaction is re-executed with a tracer attached, against the
// exact pre-state it originally ran on. The chain keeps no per-block
// state archive, so the pre-state is rebuilt: start from the newest
// persisted snapshot at or below the target block (or from the retained
// genesis when none qualifies), replay the intervening blocks through
// the same execTransaction routine the sealer used, and verify every
// replayed block against its stored header. Replay is therefore
// faithful by construction — any divergence (gas, logs, status, state
// root) aborts the trace with ErrTraceDiverged instead of returning a
// trace of an execution that never happened.
//
// Everything here runs against a pinned immutable HeadView plus scratch
// state, so tracing never blocks (or is blocked by) the sealing path.

// ErrTraceNotFound reports that the transaction or block asked for is
// not part of the chain.
var ErrTraceNotFound = errors.New("chain: trace target not found")

// ErrTraceDiverged reports that re-execution did not reproduce the
// stored receipts or state commitments. This indicates snapshot/journal
// corruption (or a nondeterministic EVM) and is always a bug worth
// surfacing, never silently ignored.
var ErrTraceDiverged = errors.New("chain: historical replay diverged from stored chain")

// TxTrace is the outcome of re-executing one historical transaction.
type TxTrace struct {
	TxHash      ethtypes.Hash
	BlockNumber uint64
	TxIndex     uint
	// Receipt is the re-derived receipt, verified field-by-field against
	// the stored one.
	Receipt *ethtypes.Receipt
	// Tracer is the tracer that observed the re-execution (the value the
	// factory returned; nil when no factory was given). Callers assert it
	// back to *evm.StructLogger / *evm.CallTracer for output rendering.
	Tracer evm.Tracer
}

// TraceTransaction re-executes the mined transaction txHash with a
// tracer from factory attached and returns its trace. factory may be
// nil, which still verifies the replay (a cheap audit of the stored
// chain).
func (bc *Blockchain) TraceTransaction(ctx context.Context, txHash ethtypes.Hash, factory func() evm.Tracer) (*TxTrace, error) {
	ctx, sp := xtrace.Start(ctx, "chain", "traceTransaction")
	defer sp.End()
	sp.SetAttr("tx", txHash.Hex())
	view := bc.View()
	rcpt, ok := view.GetReceipt(txHash)
	if !ok {
		return nil, fmt.Errorf("%w: transaction %s", ErrTraceNotFound, txHash.Hex())
	}
	traces, err := bc.traceBlock(ctx, view, rcpt.BlockNumber, factory, &txHash)
	if err != nil {
		sp.SetError(err)
		return nil, err
	}
	for _, tr := range traces {
		if tr.TxHash == txHash {
			return tr, nil
		}
	}
	// Unreachable: the receipt pinned the tx into that block.
	return nil, fmt.Errorf("%w: transaction %s vanished from block %d", ErrTraceDiverged, txHash.Hex(), rcpt.BlockNumber)
}

// TraceBlockByNumber re-executes every transaction of block n, each
// with its own tracer from factory, and returns the traces in
// transaction order.
func (bc *Blockchain) TraceBlockByNumber(ctx context.Context, n uint64, factory func() evm.Tracer) ([]*TxTrace, error) {
	ctx, sp := xtrace.Start(ctx, "chain", "traceBlock")
	defer sp.End()
	sp.SetAttr("block", fmt.Sprintf("%d", n))
	traces, err := bc.traceBlock(ctx, bc.View(), n, factory, nil)
	if err != nil {
		sp.SetError(err)
	}
	return traces, err
}

// traceBlock rebuilds the state before block n, then re-executes the
// block. When only is non-nil, just that transaction gets a tracer;
// every transaction is executed and verified regardless (later txs in
// the block need the earlier ones' state effects anyway).
func (bc *Blockchain) traceBlock(ctx context.Context, view *HeadView, n uint64, factory func() evm.Tracer, only *ethtypes.Hash) ([]*TxTrace, error) {
	if n == 0 {
		return nil, fmt.Errorf("%w: genesis holds no transactions", ErrTraceNotFound)
	}
	block, ok := view.BlockByNumber(n)
	if !ok {
		return nil, fmt.Errorf("%w: block %d", ErrTraceNotFound, n)
	}
	st, err := bc.stateBefore(ctx, view, n)
	if err != nil {
		return nil, err
	}

	traces := make([]*TxTrace, 0, len(block.Transactions))
	replayed, err := replayBlockOn(ctx, bc.chainID, st, view, block, func(i int, tx *ethtypes.Transaction) evm.Tracer {
		if factory == nil || (only != nil && tx.Hash() != *only) {
			return nil
		}
		return factory()
	})
	if err != nil {
		return nil, err
	}
	for i, rr := range replayed {
		stored, ok := view.GetReceipt(block.Transactions[i].Hash())
		if !ok {
			return nil, fmt.Errorf("%w: no stored receipt for tx %d of block %d", ErrTraceDiverged, i, n)
		}
		if err := receiptsMatch(rr.receipt, stored); err != nil {
			return nil, fmt.Errorf("%w: block %d tx %d: %v", ErrTraceDiverged, n, i, err)
		}
		traces = append(traces, &TxTrace{
			TxHash:      rr.receipt.TxHash,
			BlockNumber: n,
			TxIndex:     rr.receipt.TxIndex,
			Receipt:     rr.receipt,
			Tracer:      rr.tracer,
		})
	}
	return traces, nil
}

// stateBefore returns a mutable scratch state as of the end of block
// n-1 (the pre-state of block n), rebuilt from the nearest usable
// persisted snapshot, or from genesis when none qualifies.
func (bc *Blockchain) stateBefore(ctx context.Context, view *HeadView, n uint64) (*state.StateDB, error) {
	target := n - 1

	// Base: genesis, unless a persisted snapshot at or below target
	// passes the same validity checks recovery applies (bound to a block
	// this view actually has, decodes, and reproduces the committed
	// state root). Snapshots are loaded lazily newest-first, stopping at
	// the first that verifies. (A state-store chain writes no snapshots —
	// its anchor sits at the head, which is no use as a pre-state — so
	// there it always replays from genesis, reading evicted blocks back
	// through the view.)
	st, _ := genesisState(bc.genesis)
	base := uint64(0)
	if bc.dataDir != "" {
		for _, n := range blockdb.SnapshotNumbers(bc.dataDir) {
			if n > target || n == 0 {
				continue
			}
			b, ok := view.BlockByNumber(n)
			if !ok {
				continue
			}
			sn, err := blockdb.LoadSnapshot(bc.dataDir, n)
			if err != nil || sn.BlockHash != b.Hash() {
				continue
			}
			snapSt, err := state.DecodeSnapshot(sn.State)
			if err != nil || snapSt.Root() != b.Header.StateRoot {
				continue
			}
			st = snapSt
			base = n
			break
		}
	}

	_, sp := xtrace.Start(ctx, "chain", "rebuildState")
	defer sp.End()
	sp.SetAttr("base", fmt.Sprintf("%d", base))
	sp.SetAttr("target", fmt.Sprintf("%d", target))

	// Replay (untraced) every block between the base and the target,
	// verifying each block's state commitment as we go.
	for h := base + 1; h <= target; h++ {
		block, ok := view.BlockByNumber(h)
		if !ok {
			return nil, fmt.Errorf("%w: block %d", ErrTraceNotFound, h)
		}
		if _, err := replayBlockOn(ctx, bc.chainID, st, view, block, nil); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// replayedTx pairs a re-derived receipt with the tracer that watched it.
type replayedTx struct {
	receipt *ethtypes.Receipt
	tracer  evm.Tracer
}

// replayBlockOn re-executes block against st, mirroring the sealing
// paths exactly (per-tx receipts, cumulative gas, log indexes), and
// verifies the block-level commitments: total gas, state root, receipt
// root. tracerFor may be nil; otherwise it picks the tracer (possibly
// nil) for each transaction.
func replayBlockOn(ctx context.Context, chainID uint64, st *state.StateDB, view *HeadView, block *ethtypes.Block, tracerFor func(int, *ethtypes.Transaction) evm.Tracer) ([]replayedTx, error) {
	header := block.Header
	// BLOCKHASH at the original execution height: blocks below this one
	// resolve, this block and later were not sealed yet.
	getBlockHash := func(x uint64) ethtypes.Hash {
		if x >= header.Number {
			return ethtypes.Hash{}
		}
		if b, ok := view.BlockByNumber(x); ok {
			return b.Hash()
		}
		return ethtypes.Hash{}
	}

	out := make([]replayedTx, 0, len(block.Transactions))
	receipts := make([]*ethtypes.Receipt, 0, len(block.Transactions))
	var cumulative uint64
	for i, tx := range block.Transactions {
		sender, err := tx.Sender(chainID)
		if err != nil {
			return nil, fmt.Errorf("%w: block %d tx %d: %v", ErrTraceDiverged, header.Number, i, err)
		}
		env := &execEnv{chainID: chainID, st: st, getBlockHash: getBlockHash}
		if tracerFor != nil {
			env.tracer = tracerFor(i, tx)
		}
		rcpt, err := execTransaction(ctx, env, header, tx, sender)
		if err != nil {
			return nil, fmt.Errorf("%w: block %d tx %d: %v", ErrTraceDiverged, header.Number, i, err)
		}
		cumulative = stampReceipt(rcpt, uint(i), cumulative)
		rcpt.BlockHash = block.Hash()
		for _, l := range rcpt.Logs {
			l.BlockHash = rcpt.BlockHash
		}
		receipts = append(receipts, rcpt)
		out = append(out, replayedTx{receipt: rcpt, tracer: env.tracer})
	}
	if cumulative != header.GasUsed {
		return nil, fmt.Errorf("%w: block %d gas used %d, header says %d", ErrTraceDiverged, header.Number, cumulative, header.GasUsed)
	}
	if root := st.Root(); root != header.StateRoot {
		return nil, fmt.Errorf("%w: block %d state root %s, header says %s", ErrTraceDiverged, header.Number, root.Hex(), header.StateRoot.Hex())
	}
	if rr := DeriveReceiptRoot(receipts); rr != header.ReceiptRoot {
		return nil, fmt.Errorf("%w: block %d receipt root %s, header says %s", ErrTraceDiverged, header.Number, rr.Hex(), header.ReceiptRoot.Hex())
	}
	return out, nil
}

// receiptsMatch verifies a replayed receipt against the stored one,
// field by field (the log comparison covers address, topics and data).
func receiptsMatch(got, want *ethtypes.Receipt) error {
	if got.Status != want.Status {
		return fmt.Errorf("status %d != stored %d", got.Status, want.Status)
	}
	if got.GasUsed != want.GasUsed {
		return fmt.Errorf("gasUsed %d != stored %d", got.GasUsed, want.GasUsed)
	}
	if got.RevertReason != want.RevertReason {
		return fmt.Errorf("revertReason %q != stored %q", got.RevertReason, want.RevertReason)
	}
	if (got.ContractAddress == nil) != (want.ContractAddress == nil) {
		return errors.New("contractAddress presence mismatch")
	}
	if got.ContractAddress != nil && *got.ContractAddress != *want.ContractAddress {
		return fmt.Errorf("contractAddress %s != stored %s", got.ContractAddress.Hex(), want.ContractAddress.Hex())
	}
	if len(got.Logs) != len(want.Logs) {
		return fmt.Errorf("%d logs != stored %d", len(got.Logs), len(want.Logs))
	}
	for i := range got.Logs {
		g, w := got.Logs[i], want.Logs[i]
		if g.Address != w.Address {
			return fmt.Errorf("log %d address mismatch", i)
		}
		if len(g.Topics) != len(w.Topics) {
			return fmt.Errorf("log %d topic count mismatch", i)
		}
		for j := range g.Topics {
			if g.Topics[j] != w.Topics[j] {
				return fmt.Errorf("log %d topic %d mismatch", i, j)
			}
		}
		if string(g.Data) != string(w.Data) {
			return fmt.Errorf("log %d data mismatch", i)
		}
	}
	return nil
}
