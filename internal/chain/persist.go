package chain

import (
	"context"
	"fmt"
	"path/filepath"

	"legalchain/internal/blockdb"
	"legalchain/internal/ethtypes"
	"legalchain/internal/state"
	"legalchain/internal/statestore"
	"legalchain/internal/xtrace"
)

// Durable persistence: when opened with WithPersistence, the chain
// journals every sealed block into an append-only, CRC-framed block log
// (internal/blockdb) and periodically captures the world state into a
// snapshot, so a restart — graceful or SIGKILL — recovers the evidence
// line instead of losing it.
//
// Recovery is verify-everything: the log scan already dropped torn and
// corrupted frames; on top of that, Open checks the header chain
// (numbering, parent hashes, tx and receipt commitments) and then
// re-executes every block after the newest usable snapshot, requiring
// the recomputed state root to match each stored header. Blocks that
// fail verification are truncated from the log, never served.

// DefaultSnapshotInterval is how many blocks elapse between periodic
// state snapshots when the config leaves the interval at zero.
const DefaultSnapshotInterval = 128

// PersistConfig configures durable chain persistence.
type PersistConfig struct {
	// DataDir is the directory holding the block log segments and state
	// snapshots. It is created if missing.
	DataDir string
	// SnapshotInterval is the number of blocks between periodic state
	// snapshots (0 = DefaultSnapshotInterval). A final snapshot is also
	// written on Close.
	SnapshotInterval uint64
	// SegmentSize overrides the block-log segment rotation threshold
	// (0 = blockdb default).
	SegmentSize int64
	// NoSync skips per-block fsync. Tests and benchmarks only.
	NoSync bool
	// SnapshotsKeep is how many periodic state snapshots to retain on
	// disk (0 = blockdb.DefaultSnapshotsKept). Ignored with StateStore,
	// which replaces whole-world snapshots entirely.
	SnapshotsKeep int
	// StateStore enables the disk-backed state store under
	// DataDir/state: accounts, storage slots and trie nodes live in
	// append-only segments, the live state keeps only a bounded
	// resident set, and recovery resumes from the store's anchor
	// instead of decoding a whole-world snapshot.
	StateStore bool
	// StateCacheMB is the state store's read-cache budget in MiB
	// (0 = statestore default, 32 MiB). Only meaningful with StateStore.
	StateCacheMB int
	// MaxResidentAccounts bounds how many account objects stay resident
	// in the live state between blocks (0 = DefaultMaxResidentAccounts).
	// Only meaningful with StateStore.
	MaxResidentAccounts int
	// RetainBlocks bounds how many recent block bodies (and their logs)
	// stay resident; older blocks evict to the block log and read back
	// through on demand (0 = keep everything resident).
	RetainBlocks uint64
}

// DefaultMaxResidentAccounts is the resident-account ceiling applied
// between blocks when StateStore is on and the config leaves
// MaxResidentAccounts at zero.
const DefaultMaxResidentAccounts = 4096

// Option configures Open.
type Option func(*openConfig)

type openConfig struct {
	persist *PersistConfig
}

// WithPersistence makes the chain durable under cfg.DataDir.
func WithPersistence(cfg PersistConfig) Option {
	return func(o *openConfig) {
		c := cfg
		o.persist = &c
	}
}

// RecoveryReport describes what Open found, replayed and dropped while
// recovering a persistent chain.
type RecoveryReport struct {
	Head               uint64 // recovered chain height
	SnapshotUsed       bool   // a state snapshot bounded the replay
	SnapshotBlock      uint64 // block the snapshot captured
	BlocksReplayed     int    // blocks re-executed after the snapshot
	BlocksDropped      int    // structurally intact blocks discarded by verification
	DroppedReason      string // why blocks (or log bytes) were dropped
	LogDroppedBytes    int64  // damaged bytes truncated from the log
	LogDroppedSegments int    // whole segments discarded
}

// Dropped reports whether recovery discarded anything.
func (r *RecoveryReport) Dropped() bool {
	return r.BlocksDropped > 0 || r.LogDroppedBytes > 0 || r.LogDroppedSegments > 0
}

// Open creates a chain from the genesis, recovering durable state first
// when WithPersistence is given. Without options it is equivalent to
// New.
func Open(g *Genesis, opts ...Option) (*Blockchain, error) {
	var cfg openConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.persist == nil {
		return newMemory(g), nil
	}
	return openPersistent(g, &cfg)
}

// RecoveryReport returns the report of the recovery performed by Open,
// or nil for a memory-only chain.
func (bc *Blockchain) RecoveryReport() *RecoveryReport {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	return bc.recovery
}

// PersistErr returns the first persistence failure, if any. Once a
// journal append or snapshot write fails, the chain keeps serving from
// memory but stops persisting; callers should surface this and restart.
func (bc *Blockchain) PersistErr() error {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	return bc.persistErr
}

// Close flushes a final state snapshot (making the next startup replay
// empty), syncs and closes the block log. Memory-only chains return nil.
func (bc *Blockchain) Close() error {
	// Shut the subscription hub down first (outside bc.mu: subscriber
	// teardown takes hub and subscription locks, never bc.mu): the pump
	// exits and every subscriber wakes to an alive == false Drain.
	bc.hub.close()
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if bc.db == nil {
		return nil
	}
	// With the state store every block already committed its batch and
	// anchor; there is no whole-world snapshot to flush.
	if bc.persistErr == nil && bc.stateStore == nil {
		bc.writeSnapshotLocked(bc.blocks[len(bc.blocks)-1])
	}
	closeErr := bc.db.Close()
	bc.db = nil
	if bc.stateStore != nil {
		if err := bc.stateStore.Close(); err != nil && closeErr == nil {
			closeErr = err
		}
		bc.stateStore = nil
	}
	if bc.persistErr != nil {
		return bc.persistErr
	}
	return closeErr
}

func openPersistent(g *Genesis, cfg *openConfig) (*Blockchain, error) {
	p := cfg.persist
	interval := p.SnapshotInterval
	if interval == 0 {
		interval = DefaultSnapshotInterval
	}
	db, recs, logRep, err := blockdb.Open(p.DataDir, blockdb.Options{
		SegmentSize: p.SegmentSize,
		NoSync:      p.NoSync,
	})
	if err != nil {
		return nil, err
	}

	bc := newMemory(g)
	bc.db = db
	bc.snapInterval = interval
	bc.dataDir = p.DataDir
	bc.snapKeep = p.SnapshotsKeep
	bc.retainBlocks = p.RetainBlocks
	if p.StateStore {
		st, err := statestore.Open(filepath.Join(p.DataDir, "state"), statestore.Options{
			SegmentSize: p.SegmentSize,
			CacheBytes:  int64(p.StateCacheMB) << 20,
			NoSync:      p.NoSync,
		})
		if err != nil {
			db.Close()
			return nil, err
		}
		bc.stateStore = st
		bc.maxResident = p.MaxResidentAccounts
		if bc.maxResident == 0 {
			bc.maxResident = DefaultMaxResidentAccounts
		}
	}
	report := &RecoveryReport{
		LogDroppedBytes:    logRep.DroppedBytes,
		LogDroppedSegments: logRep.DroppedSegments,
		DroppedReason:      logRep.Reason,
	}
	bc.recovery = report

	closeAll := func() {
		db.Close()
		if bc.stateStore != nil {
			bc.stateStore.Close()
		}
	}

	if len(recs) == 0 {
		// Fresh (or fully damaged) datadir: journal the genesis record so
		// future recoveries can verify the chain identity.
		if bc.stateStore != nil {
			if err := bc.initDiskGenesis(g); err != nil {
				closeAll()
				return nil, err
			}
		}
		if err := db.Append(&blockdb.Record{Header: bc.blocks[0].Header}); err != nil {
			closeAll()
			return nil, err
		}
		return bc, nil
	}
	if recs[0].Header.Hash() != bc.blocks[0].Hash() {
		closeAll()
		return nil, fmt.Errorf("chain: datadir %s was created with a different genesis", p.DataDir)
	}

	// Structural verification: contiguous numbering, parent-hash links,
	// transaction and receipt commitments. Anything past the first
	// failure is unusable regardless of state verification.
	valid := 1
	for i := 1; i < len(recs); i++ {
		r := recs[i]
		if r.Header.Number != uint64(i) ||
			r.Header.ParentHash != recs[i-1].Header.Hash() ||
			r.Header.TxRoot != ethtypes.TxRootOf(r.Txs) ||
			r.Header.ReceiptRoot != DeriveReceiptRoot(r.Receipts) {
			report.DroppedReason = fmt.Sprintf("block %d fails structural verification", i)
			break
		}
		valid++
	}

	// Rebuild, retrying with a shorter prefix whenever a block's
	// re-execution diverges from its stored state root. limit strictly
	// decreases, so this terminates; limit == 1 replays nothing.
	limit := valid
	for {
		ok, failAt, err := bc.rebuildTo(g, recs, limit, report)
		if err != nil {
			closeAll()
			return nil, err
		}
		if ok {
			break
		}
		report.DroppedReason = fmt.Sprintf("block %d fails state verification on replay", failAt)
		limit = failAt
	}
	if limit < len(recs) {
		report.BlocksDropped = len(recs) - limit
		if err := db.Rewind(limit); err != nil {
			closeAll()
			return nil, err
		}
	}
	report.Head = bc.blocks[len(bc.blocks)-1].Number()
	// Recovery mutated the chain without publishing intermediate views
	// (nobody can read during Open); publish the final recovered head.
	bc.publishHeadLocked()
	return bc, nil
}

// initDiskGenesis replaces the fresh in-memory genesis state with a
// disk-backed one and commits the allocation as the store's first
// anchor. Any stale store contents (a damaged block log with a
// surviving state dir) are discarded first — the block log is the
// source of truth for chain identity.
func (bc *Blockchain) initDiskGenesis(g *Genesis) error {
	if err := bc.stateStore.Reset(); err != nil {
		return err
	}
	st := state.NewWithDisk(bc.stateStore, ethtypes.Hash{})
	for addr, bal := range g.Alloc {
		st.AddBalance(addr, bal)
	}
	st.Finalise()
	root := st.Root()
	genesisBlock := bc.blocks[0]
	if root != genesisBlock.Header.StateRoot {
		return fmt.Errorf("chain: disk-backed genesis root %s, want %s", root, genesisBlock.Header.StateRoot)
	}
	if err := bc.stateStore.Commit(st.TakePending(), statestore.Anchor{
		Gen:       0,
		Number:    0,
		BlockHash: genesisBlock.Hash(),
		Root:      root,
	}); err != nil {
		return err
	}
	bc.st = st
	bc.stateGen.Store(1)
	bc.publishHeadLocked()
	return nil
}

// rebuildTo reconstructs the in-memory chain from records [0, limit):
// indexes of pre-base blocks are restored from their journaled
// receipts, the world state starts at the newest usable base (a
// verified snapshot, or the state store's anchor), and every block
// after it is re-executed and verified against its header. On a
// verification failure it returns (false, failedBlock, nil) and the
// caller retries with the shorter prefix; a non-nil error is an
// unrecoverable I/O failure.
func (bc *Blockchain) rebuildTo(g *Genesis, recs []*blockdb.Record, limit int, report *RecoveryReport) (ok bool, failAt int, err error) {
	// Reset to genesis.
	st, genesisBlock := genesisState(g)
	bc.st = st
	bc.blocks = []*ethtypes.Block{genesisBlock}
	bc.blocksBase = 0
	bc.byHash = (*pindex[uint64])(nil).with1(genesisBlock.Hash(), 0)
	bc.receipts = nil
	bc.txs = nil
	bc.allLogs = nil
	bc.timeOffset = 0

	base := 0
	report.SnapshotUsed = false
	report.SnapshotBlock = 0
	anchorGen := uint64(0)

	if bc.stateStore != nil {
		// The store's anchor is the state base: it must point inside the
		// usable prefix and reproduce the committed header exactly.
		// Otherwise (damage, or a rewind past the anchor on retry) the
		// store is discarded and the chain re-executes from genesis,
		// repopulating it.
		if a, ok := bc.stateStore.Anchor(); ok &&
			a.Number < uint64(limit) &&
			recs[a.Number].Header.Hash() == a.BlockHash &&
			recs[a.Number].Header.StateRoot == a.Root {
			bc.st = state.NewWithDisk(bc.stateStore, a.Root)
			base = int(a.Number)
			anchorGen = a.Gen
			report.SnapshotUsed = base > 0
			report.SnapshotBlock = a.Number
		} else {
			if err := bc.initDiskGenesis(g); err != nil {
				return false, 0, err
			}
		}
	} else if bc.dataDir != "" {
		// Newest usable snapshot, loaded lazily newest-first: stop at the
		// first one captured inside the prefix, bound to the block we
		// actually have, and decoding to the exact committed root.
		for _, n := range blockdb.SnapshotNumbers(bc.dataDir) {
			if n >= uint64(limit) || n == 0 {
				continue
			}
			sn, err := blockdb.LoadSnapshot(bc.dataDir, n)
			if err != nil || sn.BlockHash != recs[n].Header.Hash() {
				continue
			}
			snapSt, err := state.DecodeSnapshot(sn.State)
			if err != nil || snapSt.Root() != recs[n].Header.StateRoot {
				continue
			}
			bc.st = snapSt
			base = int(n)
			report.SnapshotUsed = true
			report.SnapshotBlock = n
			break
		}
	}

	// Install blocks up to the base from their journaled records — no
	// re-execution, the base state vouches for the world and the
	// structural checks vouched for the commitments.
	for i := 1; i <= base; i++ {
		bc.installRecord(recs[i])
	}

	// Re-execute and verify everything after the base.
	replayed := 0
	for i := base + 1; i < limit; i++ {
		if !bc.replayBlock(recs[i]) {
			return false, i, nil
		}
		replayed++
	}
	report.BlocksReplayed = replayed

	if bc.stateStore != nil {
		// Land the replay's accumulated state under a head anchor. On a
		// failed attempt nothing was committed, so the retry re-anchors
		// off the untouched store.
		if replayed > 0 {
			head := bc.blocks[len(bc.blocks)-1]
			if err := bc.stateStore.Commit(bc.st.TakePending(), statestore.Anchor{
				Gen:       anchorGen + 1,
				Number:    head.Number(),
				BlockHash: head.Hash(),
				Root:      head.Header.StateRoot,
			}); err != nil {
				return false, 0, err
			}
			bc.stateGen.Store(anchorGen + 2)
		} else {
			bc.stateGen.Store(anchorGen + 1)
		}
		bc.st.EvictCold(bc.maxResident)
	}
	return true, 0, nil
}

// installRecord appends a journaled block and its stored receipts to
// the in-memory indexes without re-executing it.
func (bc *Blockchain) installRecord(rec *blockdb.Record) {
	block := rec.Block()
	bc.installBlockLocked(block, block.Hash(), rec.Txs, rec.Receipts)
}

// replayBlock re-executes one journaled block against the live state
// and verifies the outcome against the stored header: gas used, state
// root and receipt root must all match. Execution panics (possible only
// if the state diverged from the sealing-time lineage) are converted
// into verification failures — recovery must never crash the node.
func (bc *Blockchain) replayBlock(rec *blockdb.Record) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	header := rec.Header
	var receipts []*ethtypes.Receipt
	var cumulative uint64
	for i, tx := range rec.Txs {
		sender, err := tx.Sender(bc.chainID)
		if err != nil {
			return false
		}
		rcpt, err := bc.applyTransaction(context.Background(), header, tx, sender)
		if err != nil {
			return false
		}
		cumulative = stampReceipt(rcpt, uint(i), cumulative)
		receipts = append(receipts, rcpt)
	}
	if cumulative != header.GasUsed ||
		bc.st.Root() != header.StateRoot ||
		DeriveReceiptRoot(receipts) != header.ReceiptRoot {
		return false
	}
	block := rec.Block()
	bc.installBlockLocked(block, block.Hash(), rec.Txs, receipts)
	return true
}

// persistBlockLocked journals a freshly sealed block and, on snapshot
// boundaries, captures the world state. Called with bc.mu held by the
// sealing paths. A failure latches persistErr: the chain keeps serving
// from memory but stops persisting rather than journal a gap.
func (bc *Blockchain) persistBlockLocked(ctx context.Context, block *ethtypes.Block, receipts []*ethtypes.Receipt) {
	if bc.db == nil || bc.persistErr != nil {
		return
	}
	_, sp := xtrace.Start(ctx, "blockdb", "append")
	rec := &blockdb.Record{Header: block.Header, Txs: block.Transactions, Receipts: receipts}
	err := bc.db.Append(rec)
	sp.SetError(err)
	sp.End()
	if err != nil {
		bc.persistErr = err
		return
	}
	if bc.stateStore != nil {
		// The state store replaces whole-world snapshots: every block
		// commits its pending batch under a fresh generation anchor, so
		// recovery resumes from the head instead of replaying an interval.
		_, commitSp := xtrace.Start(ctx, "statestore", "commit")
		gen := bc.stateGen.Add(1) - 1
		err := bc.stateStore.Commit(bc.st.TakePending(), statestore.Anchor{
			Gen:       gen,
			Number:    block.Number(),
			BlockHash: block.Hash(),
			Root:      block.Header.StateRoot,
		})
		commitSp.SetError(err)
		commitSp.End()
		if err != nil {
			bc.persistErr = err
		} else if _, err := bc.stateStore.MaybeCompact(); err != nil {
			bc.persistErr = err
		}
		return
	}
	if bc.snapInterval > 0 && block.Number()%bc.snapInterval == 0 {
		_, snapSp := xtrace.Start(ctx, "blockdb", "snapshot")
		bc.writeSnapshotLocked(block)
		snapSp.End()
	}
}

func (bc *Blockchain) writeSnapshotLocked(head *ethtypes.Block) {
	if bc.db == nil || bc.stateStore != nil {
		return
	}
	snap := &blockdb.Snapshot{
		Number:    head.Number(),
		BlockHash: head.Hash(),
		State:     bc.st.EncodeSnapshot(),
	}
	keep := bc.snapKeep
	if keep <= 0 {
		keep = blockdb.DefaultSnapshotsKept
	}
	if err := blockdb.WriteSnapshotKeep(bc.db.Dir(), snap, keep); err != nil {
		bc.persistErr = err
	}
}
