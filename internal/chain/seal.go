package chain

import (
	"context"
	"fmt"
	"time"

	"legalchain/internal/ethtypes"
	"legalchain/internal/xtrace"
)

// One seal path. Both SendTransaction (one block per transaction, the
// paper's automine) and MineBlock (one block per queued batch) execute
// their transactions through executeLocked and finish the block through
// sealLocked, all under bc.mu: state root, receipt root, index install,
// journal append, cold-data eviction, head-view publication. When either
// returns, the block is durable (up to the journal's fsync policy) and
// queryable.

// txMeta is one transaction with its recovered sender, the unit
// executeLocked runs.
type txMeta struct {
	tx     *ethtypes.Transaction
	sender ethtypes.Address
}

// executeLocked runs metas in order against bc.st on top of header and
// returns the included transactions, their stamped receipts and the
// dropped-transaction map (bad nonce, insufficient funds, intrinsic gas).
// A dropped transaction leaves the state untouched. Called with bc.mu
// held.
func (bc *Blockchain) executeLocked(ctx context.Context, header *ethtypes.Header, metas []txMeta) ([]*ethtypes.Transaction, []*ethtypes.Receipt, map[ethtypes.Hash]error) {
	failed := map[ethtypes.Hash]error{}
	var included []*ethtypes.Transaction
	var receipts []*ethtypes.Receipt
	var cumulative uint64
	for _, m := range metas {
		if expected := bc.st.GetNonce(m.sender); m.tx.Nonce != expected {
			failed[m.tx.Hash()] = fmt.Errorf("%w: have %d, want %d", nonceErr(m.tx.Nonce, expected), m.tx.Nonce, expected)
			continue
		}
		rcpt, err := bc.applyTransaction(ctx, header, m.tx, m.sender)
		if err != nil {
			failed[m.tx.Hash()] = err
			continue
		}
		cumulative = stampReceipt(rcpt, uint(len(included)), cumulative)
		included = append(included, m.tx)
		receipts = append(receipts, rcpt)
	}
	return included, receipts, failed
}

func nonceErr(have, want uint64) error {
	if have < want {
		return ErrNonceTooLow
	}
	return ErrNonceTooHigh
}

// stampReceipt gives rcpt its position in the block — transaction index,
// cumulative gas, per-log indexes — and returns the new cumulative gas.
// Sealing, recovery replay and historical tracing all stamp through it,
// so a replayed receipt matches the sealed one field for field.
func stampReceipt(rcpt *ethtypes.Receipt, index uint, cumulative uint64) uint64 {
	rcpt.TxIndex = index
	cumulative += rcpt.GasUsed
	rcpt.CumulativeGasUsed = cumulative
	for j, l := range rcpt.Logs {
		l.TxIndex = index
		l.Index = uint(j)
	}
	return cumulative
}

// sealLocked finishes a block whose transactions have executed on
// bc.st: gas and commitments, state root, index install, journal
// append, eviction and head-view publication. Sealing consumes any
// AdjustTime offset the header was built with. Called with bc.mu held.
func (bc *Blockchain) sealLocked(ctx context.Context, header *ethtypes.Header, included []*ethtypes.Transaction, receipts []*ethtypes.Receipt, sealStart time.Time) *ethtypes.Block {
	if n := len(receipts); n > 0 {
		header.GasUsed = receipts[n-1].CumulativeGasUsed
	}
	header.TxRoot = ethtypes.TxRootOf(included)
	rootStart := time.Now()
	_, rootSp := xtrace.Start(ctx, "chain", "stateRoot")
	header.StateRoot = bc.st.Root()
	rootSp.End()
	mStateRootSeconds.ObserveSince(rootStart)
	header.ReceiptRoot = DeriveReceiptRoot(receipts)
	block := &ethtypes.Block{Header: header, Transactions: included}
	bc.installBlockLocked(block, block.Hash(), included, receipts)
	bc.persistBlockLocked(ctx, block, receipts)
	bc.evictColdLocked()
	bc.timeOffset = 0
	bc.publishHeadLocked()
	mSealSeconds.ObserveSince(sealStart)
	mBlocksSealed.Inc()
	mTxsExecuted.Add(uint64(len(included)))
	mHeadBlock.Set(int64(header.Number))
	return block
}

// evictColdLocked bounds resident memory after a block lands: clean
// account objects beyond maxResident drop out of the live state (they
// read back through the state store's cache), and block bodies older
// than retainBlocks evict to the block log together with their logs.
// Both evictions require the evicted data to be durably committed, so
// a latched persist error freezes eviction. Slices are reallocated,
// never truncated in place — published views keep their own headers
// over the old backing array.
func (bc *Blockchain) evictColdLocked() {
	if bc.persistErr != nil {
		return
	}
	if bc.stateStore != nil {
		bc.st.EvictCold(bc.maxResident)
	}
	if bc.retainBlocks == 0 || bc.db == nil || uint64(len(bc.blocks)) <= bc.retainBlocks {
		return
	}
	head := bc.blocks[len(bc.blocks)-1].Number()
	newBase := head - bc.retainBlocks + 1
	cut := int(newBase - bc.blocksBase)
	if cut <= 0 {
		return
	}
	nb := make([]*ethtypes.Block, len(bc.blocks)-cut)
	copy(nb, bc.blocks[cut:])
	bc.blocks = nb
	bc.blocksBase = newBase
	mBlocksEvicted.Add(uint64(cut))
	keep := 0
	for keep < len(bc.allLogs) && bc.allLogs[keep].BlockNumber < newBase {
		keep++
	}
	if keep > 0 {
		nl := make([]*ethtypes.Log, len(bc.allLogs)-keep)
		copy(nl, bc.allLogs[keep:])
		bc.allLogs = nl
	}
}

// installBlockLocked appends a sealed (or replayed) block and its
// receipts to the writer-owned indexes, stamping the block hash into
// every receipt and log.
func (bc *Blockchain) installBlockLocked(block *ethtypes.Block, blockHash ethtypes.Hash, included []*ethtypes.Transaction, receipts []*ethtypes.Receipt) {
	newReceipts := make(map[ethtypes.Hash]*ethtypes.Receipt, len(receipts))
	newTxs := make(map[ethtypes.Hash]*ethtypes.Transaction, len(included))
	for i, rcpt := range receipts {
		rcpt.BlockHash = blockHash
		for _, l := range rcpt.Logs {
			l.BlockHash = blockHash
		}
		newReceipts[rcpt.TxHash] = rcpt
		newTxs[included[i].Hash()] = included[i]
		bc.allLogs = append(bc.allLogs, rcpt.Logs...)
	}
	bc.receipts = bc.receipts.with(newReceipts)
	bc.txs = bc.txs.with(newTxs)
	bc.blocks = append(bc.blocks, block)
	bc.byHash = bc.byHash.with1(blockHash, block.Number())
}

// blockHashLocked is the BLOCKHASH source of live execution. It resolves
// against the writer-owned chain (bc.mu is held; the published view
// would serve a stale height during recovery replay); evicted blocks
// read back through the block log.
func (bc *Blockchain) blockHashLocked(n uint64) ethtypes.Hash {
	if n >= bc.blocksBase && n-bc.blocksBase < uint64(len(bc.blocks)) {
		return bc.blocks[n-bc.blocksBase].Hash()
	}
	if n < bc.blocksBase && bc.db != nil {
		if rec, err := bc.db.ReadRecord(n); err == nil {
			return rec.Block().Hash()
		}
	}
	return ethtypes.Hash{}
}
