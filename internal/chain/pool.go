package chain

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"time"

	"legalchain/internal/ethtypes"
	"legalchain/internal/evm"
)

// Batch mining: by default the devnet seals one block per transaction
// (SendTransaction), matching Ganache's automine. For workloads that
// want realistic multi-transaction blocks — cumulative gas, transaction
// indexes, shared timestamps — transactions can instead be queued with
// SubmitTransaction and sealed together with MineBlock, which runs the
// batch through the same execute loop and seal as SendTransaction
// (seal.go).

// SubmitTransaction validates tx statelessly and queues it for the next
// MineBlock call. Nonce and balance are checked at mining time, in
// queue order.
func (bc *Blockchain) SubmitTransaction(tx *ethtypes.Transaction) (ethtypes.Hash, error) {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	hash := tx.Hash()
	if _, known := bc.txs.get(hash); known {
		return hash, ErrKnownTransaction
	}
	if _, pending := bc.pendingSet[hash]; pending {
		return hash, ErrKnownTransaction
	}
	if _, err := tx.Sender(bc.chainID); err != nil {
		return ethtypes.Hash{}, fmt.Errorf("chain: invalid signature: %w", err)
	}
	if tx.Gas > bc.gasLimit {
		return ethtypes.Hash{}, ErrGasLimitExceeded
	}
	bc.pending = append(bc.pending, tx)
	if bc.pendingSet == nil {
		bc.pendingSet = make(map[ethtypes.Hash]struct{})
	}
	bc.pendingSet[hash] = struct{}{}
	bc.hub.enqueue(Event{TxHash: hash})
	mTxpoolPending.Set(int64(len(bc.pending)))
	return hash, nil
}

// PendingCount returns the queued transaction count.
func (bc *Blockchain) PendingCount() int {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	return len(bc.pending)
}

// MineBlock seals every pending transaction into one block, ordered by
// (sender, nonce) then submission order, and returns it. Transactions
// whose nonce or funds are wrong at execution time are dropped with
// their error recorded in the returned map. Mining an empty pool
// produces an empty block (useful to advance time).
func (bc *Blockchain) MineBlock() (*ethtypes.Block, map[ethtypes.Hash]error) {
	sealStart := time.Now()
	bc.mu.Lock()
	defer bc.mu.Unlock()

	txs := bc.pending
	bc.pending = nil
	bc.pendingSet = nil
	mTxpoolPending.Set(0)
	// Transactions whose signature does not recover are skipped.
	metas := make([]txMeta, 0, len(txs))
	for _, tx := range txs {
		if sender, err := tx.Sender(bc.chainID); err == nil {
			metas = append(metas, txMeta{tx: tx, sender: sender})
		}
	}
	// Stable order: by sender then nonce; submission order breaks ties.
	sort.SliceStable(metas, func(i, j int) bool {
		if c := bytes.Compare(metas[i].sender[:], metas[j].sender[:]); c != 0 {
			return c < 0
		}
		return metas[i].tx.Nonce < metas[j].tx.Nonce
	})

	ctx := context.Background()
	header := bc.nextHeaderLocked()
	included, receipts, failed := bc.executeLocked(ctx, header, metas)
	mTxsFailed.Add(uint64(len(failed)))
	return bc.sealLocked(ctx, header, included, receipts, sealStart), failed
}

// TraceCall executes a read-only message against the published head view
// with a structured tracer attached, returning the call result and the
// trace — the debug_traceCall facility. Lock-free.
func (bc *Blockchain) TraceCall(from ethtypes.Address, to *ethtypes.Address, data []byte, gas uint64) (*CallResult, *evm.StructLogger) {
	return bc.View().TraceCall(from, to, data, gas)
}
