// Package state implements the journaled world state of the chain: the
// account model (nonce, balance, code, storage) with snapshot/revert
// semantics required by the EVM's nested call frames, plus Merkle root
// computation over the account and storage tries.
//
// Root computation is incremental: the StateDB keeps a persistent
// account trie and per-account storage tries that are *updated* from
// dirty-tracked accounts and slots on each Root() call, rather than
// rebuilt from scratch. Storage tries of distinct dirty accounts are
// independent, so their roots are recomputed in parallel on a bounded
// worker pool. RebuildRoot keeps the original from-scratch computation
// as a test oracle.
package state

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"legalchain/internal/ethtypes"
	"legalchain/internal/rlp"
	"legalchain/internal/statestore"
	"legalchain/internal/trie"
	"legalchain/internal/uint256"
)

// EmptyCodeHash is keccak256 of empty code — the code hash of every
// externally-owned account.
var EmptyCodeHash = ethtypes.Keccak256(nil)

// stateObject is the in-memory representation of one account.
type stateObject struct {
	nonce    uint64
	balance  uint256.Int
	code     []byte
	codeHash ethtypes.Hash

	// storage holds the live storage values. origin holds the value each
	// slot had when the current transaction began, used for SSTORE gas
	// metering and refunds.
	storage map[ethtypes.Hash]uint256.Int
	origin  map[ethtypes.Hash]uint256.Int

	// partial marks a disk-backed object: storage holds only the
	// resident subset of the account's slots (including zero-valued
	// tombstones), the rest reads through the store; storageRoot is the
	// committed storage root anchoring the account's lazy trie. See
	// disk.go for the invariants.
	partial     bool
	storageRoot ethtypes.Hash

	selfdestructed bool

	// shared marks storage/origin as copy-on-write shared with at least
	// one Copy() of this state. Writers must call ensureOwned first.
	// Atomic because concurrent eth_call snapshots may mark the same
	// object shared while holding only a read lock on the chain.
	shared atomic.Bool
}

func newStateObject() *stateObject {
	return &stateObject{
		codeHash: EmptyCodeHash,
		storage:  make(map[ethtypes.Hash]uint256.Int),
		origin:   make(map[ethtypes.Hash]uint256.Int),
	}
}

// ensureOwned un-shares the object's maps before a write: if a Copy()
// still references them, the writer clones and mutates its private clone,
// leaving the shared snapshot untouched.
func (o *stateObject) ensureOwned() {
	if !o.shared.Load() {
		return
	}
	st := make(map[ethtypes.Hash]uint256.Int, len(o.storage))
	for k, v := range o.storage {
		st[k] = v
	}
	og := make(map[ethtypes.Hash]uint256.Int, len(o.origin))
	for k, v := range o.origin {
		og[k] = v
	}
	o.storage, o.origin = st, og
	o.shared.Store(false)
}

// cloneShared duplicates an account header for a copy-on-write view
// (Copy and Overlay), marking both sides' maps shared so the first
// writer on either side clones via ensureOwned. Code slices are shared
// outright: SetCode replaces, never mutates.
func cloneShared(o *stateObject) *stateObject {
	o.shared.Store(true)
	no := &stateObject{
		nonce:          o.nonce,
		balance:        o.balance,
		code:           o.code,
		codeHash:       o.codeHash,
		storage:        o.storage,
		origin:         o.origin,
		partial:        o.partial,
		storageRoot:    o.storageRoot,
		selfdestructed: o.selfdestructed,
	}
	no.shared.Store(true)
	return no
}

// empty reports whether the account is empty per EIP-161
// (nonce == 0, balance == 0, no code). Code presence is judged by the
// hash: partial objects may hold real code on disk without it being
// resident.
func (o *stateObject) empty() bool {
	return o.nonce == 0 && o.balance.IsZero() && o.codeHash == EmptyCodeHash
}

// dirtyEntry records what changed for one account since the tries were
// last synced. Presence of an entry means the account-trie leaf is stale;
// slots lists the storage slots whose trie values need refreshing; reset
// means the whole storage trie must be rebuilt (the account was deleted,
// so per-slot tracking is no longer sufficient).
type dirtyEntry struct {
	reset bool
	slots map[ethtypes.Hash]struct{}
}

// StateDB is the mutable world state with journaling.
type StateDB struct {
	objects map[ethtypes.Address]*stateObject
	journal []func()
	refund  uint64
	logs    []*ethtypes.Log

	// frozen marks the state immutable (see Freeze). A frozen StateDB is
	// safe for lock-free concurrent reads and Copy; every mutator panics.
	frozen bool

	// Incremental commit pipeline: persistent tries, synced from the
	// dirty set on Root()/StorageRoot().
	accountTrie  *trie.Secure
	storageTries map[ethtypes.Address]*trie.Secure
	// rootCache holds each account's storage root as of its last sync.
	rootCache map[ethtypes.Address]ethtypes.Hash
	dirties   map[ethtypes.Address]*dirtyEntry
	worldRoot ethtypes.Hash
	rootValid bool

	// disk, when non-nil, makes this state disk-backed: accounts and
	// slots absent from objects read through the store, and Root()
	// streams changes into pending for the chain to commit. See disk.go.
	disk    DiskStore
	pending *statestore.Batch

	// deleted marks accounts removed since the last store commit, so a
	// read cannot resurrect them from not-yet-updated disk records.
	// Markers are cleared on explicit recreation and pruned (against
	// the store) during EvictCold; a stale marker for a truly absent
	// account is harmless. Only populated in disk mode.
	deleted map[ethtypes.Address]struct{}

	// base, when non-nil, makes this state an Overlay: getObject
	// materialises copy-on-write clones of base accounts on first touch
	// instead of requiring an up-front whole-world Copy. See overlay.go.
	base *StateDB
}

// New returns an empty world state.
func New() *StateDB {
	return &StateDB{
		objects:      make(map[ethtypes.Address]*stateObject),
		accountTrie:  trie.NewSecure(),
		storageTries: make(map[ethtypes.Address]*trie.Secure),
		rootCache:    make(map[ethtypes.Address]ethtypes.Hash),
		dirties:      make(map[ethtypes.Address]*dirtyEntry),
	}
}

// Freeze marks the state immutable, establishing the invariants the
// chain's published head views rely on: the journal must be empty (the
// sealing paths Finalise before freezing), the world root is computed
// eagerly so frozen Root() is a cached read, and from here on every
// mutator panics. Reads and Copy remain legal — Copy returns a fresh
// mutable state layered copy-on-write over the frozen one, which is how
// eth_call executes speculatively against a frozen view.
func (s *StateDB) Freeze() {
	if len(s.journal) > 0 {
		panic("state: Freeze with pending journal (Finalise first)")
	}
	s.Root()
	s.frozen = true
}

// Frozen reports whether the state has been frozen.
func (s *StateDB) Frozen() bool { return s.frozen }

// mustMutable guards every mutator against writes to a frozen state.
func (s *StateDB) mustMutable(op string) {
	if s.frozen {
		panic("state: " + op + " on frozen state")
	}
}

func (s *StateDB) getObject(addr ethtypes.Address) *stateObject {
	if o := s.objects[addr]; o != nil {
		return o
	}
	if s.base != nil {
		// Overlay copy-on-read: materialise a private clone of the base
		// account. Cloning even for pure reads keeps every caller that
		// mutates the returned object (SelfDestruct, SetState after a
		// getObject hit) isolated from the base. No journal entry: the
		// clone is indistinguishable from having copied up front.
		if bo := s.base.objects[addr]; bo != nil {
			no := cloneShared(bo)
			s.objects[addr] = no
			return no
		}
		if s.base.disk != nil && !s.isDeleted(addr) && !s.base.isDeleted(addr) {
			if o := loadDiskObject(s.base.disk, addr); o != nil {
				s.objects[addr] = o
				return o
			}
		}
		return nil
	}
	if s.disk != nil && !s.isDeleted(addr) {
		o := loadDiskObject(s.disk, addr)
		if o == nil {
			return nil
		}
		if s.frozen {
			// Frozen states are read lock-free by many goroutines:
			// never cache, hand out a transient object. The store's
			// LRU absorbs the repeats.
			return o
		}
		s.objects[addr] = o
		return o
	}
	return nil
}

func (s *StateDB) isDeleted(addr ethtypes.Address) bool {
	_, ok := s.deleted[addr]
	return ok
}

func (s *StateDB) markDeleted(addr ethtypes.Address) {
	if s.deleted == nil {
		s.deleted = make(map[ethtypes.Address]struct{})
	}
	s.deleted[addr] = struct{}{}
}

func (s *StateDB) getOrNewObject(addr ethtypes.Address) *stateObject {
	if o := s.getObject(addr); o != nil {
		return o
	}
	o := newStateObject()
	s.objects[addr] = o
	// Recreation clears the deleted-since-commit marker; the journal
	// restores it so a reverted recreation cannot resurrect the old
	// disk record through a later read.
	wasDeleted := s.isDeleted(addr)
	if wasDeleted {
		delete(s.deleted, addr)
	}
	s.journal = append(s.journal, func() {
		delete(s.objects, addr)
		if wasDeleted {
			s.markDeleted(addr)
		}
		// The account (and any storage it accumulated) must fall out of
		// the tries on the next sync.
		s.markReset(addr)
	})
	return o
}

// touch marks the account's trie leaf stale.
func (s *StateDB) touch(addr ethtypes.Address) {
	s.markAccount(addr)
}

func (s *StateDB) markAccount(addr ethtypes.Address) *dirtyEntry {
	e := s.dirties[addr]
	if e == nil {
		e = &dirtyEntry{}
		s.dirties[addr] = e
	}
	s.rootValid = false
	return e
}

func (s *StateDB) markSlot(addr ethtypes.Address, slot ethtypes.Hash) {
	e := s.markAccount(addr)
	if e.reset {
		return // the whole storage trie is pending a rebuild anyway
	}
	if e.slots == nil {
		e.slots = make(map[ethtypes.Hash]struct{})
	}
	e.slots[slot] = struct{}{}
}

func (s *StateDB) markReset(addr ethtypes.Address) {
	e := s.markAccount(addr)
	e.reset = true
	e.slots = nil
}

// Exist reports whether the account exists in state.
func (s *StateDB) Exist(addr ethtypes.Address) bool {
	return s.getObject(addr) != nil
}

// Empty reports whether the account is absent or empty (EIP-161).
func (s *StateDB) Empty(addr ethtypes.Address) bool {
	o := s.getObject(addr)
	return o == nil || o.empty()
}

// CreateAccount explicitly creates an account (used for contract
// deployment targets).
func (s *StateDB) CreateAccount(addr ethtypes.Address) {
	s.mustMutable("CreateAccount")
	s.getOrNewObject(addr)
	s.touch(addr)
}

// GetBalance returns the account balance (zero for absent accounts).
func (s *StateDB) GetBalance(addr ethtypes.Address) uint256.Int {
	if o := s.getObject(addr); o != nil {
		return o.balance
	}
	return uint256.Zero
}

// AddBalance credits addr by amount.
func (s *StateDB) AddBalance(addr ethtypes.Address, amount uint256.Int) {
	s.mustMutable("AddBalance")
	o := s.getOrNewObject(addr)
	prev := o.balance
	s.journal = append(s.journal, func() {
		o.balance = prev
		s.markAccount(addr)
	})
	o.balance = o.balance.Add(amount)
	s.touch(addr)
}

// SubBalance debits addr by amount. The caller must have checked funds;
// it panics on underflow to surface accounting bugs loudly.
func (s *StateDB) SubBalance(addr ethtypes.Address, amount uint256.Int) {
	s.mustMutable("SubBalance")
	o := s.getOrNewObject(addr)
	next, under := o.balance.SubUnderflow(amount)
	if under {
		panic(fmt.Sprintf("state: balance underflow for %s", addr))
	}
	prev := o.balance
	s.journal = append(s.journal, func() {
		o.balance = prev
		s.markAccount(addr)
	})
	o.balance = next
	s.touch(addr)
}

// GetNonce returns the account nonce.
func (s *StateDB) GetNonce(addr ethtypes.Address) uint64 {
	if o := s.getObject(addr); o != nil {
		return o.nonce
	}
	return 0
}

// SetNonce sets the account nonce.
func (s *StateDB) SetNonce(addr ethtypes.Address, nonce uint64) {
	s.mustMutable("SetNonce")
	o := s.getOrNewObject(addr)
	prev := o.nonce
	s.journal = append(s.journal, func() {
		o.nonce = prev
		s.markAccount(addr)
	})
	o.nonce = nonce
	s.touch(addr)
}

// GetCode returns the contract code at addr.
func (s *StateDB) GetCode(addr ethtypes.Address) []byte {
	if o := s.getObject(addr); o != nil {
		return s.codeOf(o)
	}
	return nil
}

// GetCodeSize returns len(code) without copying.
func (s *StateDB) GetCodeSize(addr ethtypes.Address) int {
	return len(s.GetCode(addr))
}

// GetCodeHash returns keccak(code), the zero hash for absent accounts.
func (s *StateDB) GetCodeHash(addr ethtypes.Address) ethtypes.Hash {
	if o := s.getObject(addr); o != nil {
		return o.codeHash
	}
	return ethtypes.Hash{}
}

// SetCode installs contract code at addr.
func (s *StateDB) SetCode(addr ethtypes.Address, code []byte) {
	s.mustMutable("SetCode")
	o := s.getOrNewObject(addr)
	prevCode, prevHash := o.code, o.codeHash
	s.journal = append(s.journal, func() {
		o.code, o.codeHash = prevCode, prevHash
		s.markAccount(addr)
	})
	o.code = append([]byte(nil), code...)
	o.codeHash = ethtypes.Keccak256(code)
	s.touch(addr)
}

// GetState reads a storage slot.
func (s *StateDB) GetState(addr ethtypes.Address, slot ethtypes.Hash) uint256.Int {
	if o := s.getObject(addr); o != nil {
		if v, ok := o.storage[slot]; ok || !o.partial {
			return v
		}
		return s.diskSlot(addr, slot)
	}
	return uint256.Zero
}

// GetCommittedState reads the value the slot had at the start of the
// current transaction (for SSTORE gas metering).
func (s *StateDB) GetCommittedState(addr ethtypes.Address, slot ethtypes.Hash) uint256.Int {
	o := s.getObject(addr)
	if o == nil {
		return uint256.Zero
	}
	if v, ok := o.origin[slot]; ok {
		return v
	}
	if v, ok := o.storage[slot]; ok || !o.partial {
		return v
	}
	return s.diskSlot(addr, slot)
}

// SetState writes a storage slot.
func (s *StateDB) SetState(addr ethtypes.Address, slot ethtypes.Hash, value uint256.Int) {
	s.mustMutable("SetState")
	o := s.getOrNewObject(addr)
	o.ensureOwned()
	// Partial objects fault the committed value in before the first
	// write, so origin tracking and journal undo see the true previous
	// value rather than a spurious zero.
	s.materialiseSlot(o, addr, slot)
	if _, tracked := o.origin[slot]; !tracked {
		o.origin[slot] = o.storage[slot]
	}
	prev, existed := o.storage[slot]
	s.journal = append(s.journal, func() {
		o.ensureOwned()
		if existed {
			o.storage[slot] = prev
		} else {
			delete(o.storage, slot)
		}
		s.markSlot(addr, slot)
	})
	if value.IsZero() && !o.partial {
		delete(o.storage, slot)
	} else {
		// Partial objects keep resident zeros: the tombstone shadows
		// whatever the disk still holds for this slot.
		o.storage[slot] = value
	}
	s.markSlot(addr, slot)
}

// SelfDestruct marks the contract for deletion at transaction finalize
// and zeroes its balance (the caller moves funds first).
func (s *StateDB) SelfDestruct(addr ethtypes.Address) {
	s.mustMutable("SelfDestruct")
	o := s.getObject(addr)
	if o == nil {
		return
	}
	prevFlag, prevBal := o.selfdestructed, o.balance
	s.journal = append(s.journal, func() {
		o.selfdestructed, o.balance = prevFlag, prevBal
		s.markAccount(addr)
	})
	o.selfdestructed = true
	o.balance = uint256.Zero
	s.touch(addr)
}

// HasSelfDestructed reports the destruct flag.
func (s *StateDB) HasSelfDestructed(addr ethtypes.Address) bool {
	o := s.getObject(addr)
	return o != nil && o.selfdestructed
}

// AddRefund accumulates the SSTORE refund counter.
func (s *StateDB) AddRefund(gas uint64) {
	s.mustMutable("AddRefund")
	prev := s.refund
	s.journal = append(s.journal, func() { s.refund = prev })
	s.refund += gas
}

// SubRefund decreases the refund counter (EIP-2200 net metering).
func (s *StateDB) SubRefund(gas uint64) {
	s.mustMutable("SubRefund")
	prev := s.refund
	s.journal = append(s.journal, func() { s.refund = prev })
	if gas > s.refund {
		panic("state: refund counter below zero")
	}
	s.refund -= gas
}

// GetRefund returns the refund counter.
func (s *StateDB) GetRefund() uint64 { return s.refund }

// AddLog appends an event log emitted by the current execution.
func (s *StateDB) AddLog(log *ethtypes.Log) {
	s.mustMutable("AddLog")
	s.journal = append(s.journal, func() { s.logs = s.logs[:len(s.logs)-1] })
	s.logs = append(s.logs, log)
}

// Logs returns logs emitted since the last TakeLogs.
func (s *StateDB) Logs() []*ethtypes.Log { return s.logs }

// TakeLogs returns and clears the accumulated logs (end of transaction).
func (s *StateDB) TakeLogs() []*ethtypes.Log {
	s.mustMutable("TakeLogs")
	out := s.logs
	s.logs = nil
	return out
}

// Snapshot returns an identifier for the current state revision.
func (s *StateDB) Snapshot() int { return len(s.journal) }

// RevertToSnapshot undoes every change made after the snapshot was taken.
// Each undo re-marks what it restores, so the tries re-sync the reverted
// values on the next Root() — no wholesale cache invalidation needed.
func (s *StateDB) RevertToSnapshot(id int) {
	s.mustMutable("RevertToSnapshot")
	if id < 0 || id > len(s.journal) {
		panic(fmt.Sprintf("state: invalid snapshot id %d (journal %d)", id, len(s.journal)))
	}
	for i := len(s.journal) - 1; i >= id; i-- {
		s.journal[i]()
	}
	s.journal = s.journal[:id]
}

// Finalise ends a transaction: deletes self-destructed and empty-touched
// accounts, clears per-tx origin tracking, resets refund and journal.
//
// Self-destruct always wins: a self-destructed account is removed even
// if it still holds storage or was re-funded after the destruct within
// the same transaction (the ether is burned, matching mainnet pre-Cancun
// semantics). The EIP-161 empty-account sweep applies only to accounts
// that also have no storage left.
func (s *StateDB) Finalise() {
	s.mustMutable("Finalise")
	diskBacked := s.diskStore() != nil
	for addr, o := range s.objects {
		if o.deletable() {
			delete(s.objects, addr)
			s.markReset(addr)
			if diskBacked {
				s.markDeleted(addr)
			}
			continue
		}
		if len(o.origin) > 0 {
			// Replacing the map (rather than clearing it) keeps any
			// copy-on-write sharer's view intact.
			o.origin = make(map[ethtypes.Hash]uint256.Int)
		}
	}
	s.journal = nil
	s.refund = 0
}

// applyStorageDirt brings tr up to date for the given object: either a
// full rebuild from every live slot, or a per-slot refresh of just the
// given ones. Zero values delete — partial objects keep resident zero
// tombstones that must fall out of the trie, and in-memory objects
// never store zeros, so the paths coincide.
func applyStorageDirt(tr *trie.Secure, o *stateObject, slots []ethtypes.Hash, full bool) {
	if full {
		for slot, val := range o.storage {
			if val.IsZero() {
				continue
			}
			tr.Put(slot[:], rlp.Encode(rlp.Bytes(val.Bytes())))
		}
		return
	}
	for _, slot := range slots {
		if val, ok := o.storage[slot]; ok && !val.IsZero() {
			tr.Put(slot[:], rlp.Encode(rlp.Bytes(val.Bytes())))
		} else {
			tr.Delete(slot[:])
		}
	}
}

// residentSlots lists every resident slot key of o (the sync list for
// a partial object's freshly anchored lazy trie).
func residentSlots(o *stateObject) []ethtypes.Hash {
	out := make([]ethtypes.Hash, 0, len(o.storage))
	for slot := range o.storage {
		out = append(out, slot)
	}
	return out
}

// StorageRoot computes the Merkle root of one account's storage trie,
// syncing any pending dirty slots for that account first.
func (s *StateDB) StorageRoot(addr ethtypes.Address) ethtypes.Hash {
	if s.disk != nil {
		// Disk mode: every hash computation must route through
		// HashCollect so fresh nodes land in the pending batch — a
		// plain Hash here would cache them as already-emitted and they
		// would never reach the store. Delegate to the full sync.
		s.Root()
		if h, ok := s.rootCache[addr]; ok {
			return h
		}
		if o := s.getObject(addr); o != nil && o.partial {
			return o.storageRoot
		}
		return trie.EmptyRoot
	}
	o := s.getObject(addr)
	e := s.dirties[addr]
	if o == nil || (!o.partial && len(o.storage) == 0) {
		if e != nil {
			delete(s.storageTries, addr)
			delete(s.rootCache, addr)
			e.reset, e.slots = false, nil // account leaf stays marked
		}
		return trie.EmptyRoot
	}
	if e != nil && (e.reset || len(e.slots) > 0) {
		tr := s.storageTries[addr]
		full := false
		var slots []ethtypes.Hash
		switch {
		case e.reset || (tr == nil && !o.partial):
			tr = s.newStorageTrie()
			full = true
		case tr == nil:
			// Partial object without a materialised trie: anchor a lazy
			// trie at the committed root and sync every resident slot
			// (an overlay trie is never collected, so Hash is fine).
			tr = trie.NewSecureFromRoot(o.storageRoot, s.diskStore())
			slots = residentSlots(o)
		default:
			slots = make([]ethtypes.Hash, 0, len(e.slots))
			for slot := range e.slots {
				slots = append(slots, slot)
			}
		}
		applyStorageDirt(tr, o, slots, full)
		s.storageTries[addr] = tr
		s.rootCache[addr] = tr.Hash(nil)
		e.reset, e.slots = false, nil
	}
	if h, ok := s.rootCache[addr]; ok {
		return h
	}
	// Cold path: storage present but never synced (e.g. a Copy taken
	// before any root computation). Full rebuild — or, for a partial
	// object, resident slots over the committed anchor.
	var tr *trie.Secure
	if o.partial {
		tr = trie.NewSecureFromRoot(o.storageRoot, s.diskStore())
		applyStorageDirt(tr, o, residentSlots(o), false)
	} else {
		tr = s.newStorageTrie()
		applyStorageDirt(tr, o, nil, true)
	}
	s.storageTries[addr] = tr
	h := tr.Hash(nil)
	s.rootCache[addr] = h
	return h
}

// storageJob is one dirty account's storage-trie sync, runnable in
// parallel with other accounts' jobs (their tries share no nodes).
type storageJob struct {
	addr  ethtypes.Address
	obj   *stateObject
	tr    *trie.Secure
	slots []ethtypes.Hash
	full  bool
	drop  bool // storage gone (or account deleted): drop the trie
	root  ethtypes.Hash

	// Disk mode: collect routes hashing through HashCollect so fresh
	// trie nodes accumulate in nodes for the pending batch; dirt is the
	// slot list whose flat records must be (re)staged — distinct from
	// slots, which for a freshly anchored partial trie also carries
	// clean resident slots that need syncing but not re-staging.
	collect bool
	nodes   []statestore.NodeBlob
	dirt    []ethtypes.Hash
}

// maxStorageHashWorkers bounds the worker pool for parallel storage-root
// computation; beyond this, keccak throughput saturates memory bandwidth.
const maxStorageHashWorkers = 8

// minParallelJobs is the fan-out threshold below which goroutine setup
// costs more than it saves.
const minParallelJobs = 3

func (j *storageJob) run() {
	if j.drop || j.tr == nil {
		return
	}
	applyStorageDirt(j.tr, j.obj, j.slots, j.full)
	if j.collect {
		j.root = j.tr.HashCollect(func(h ethtypes.Hash, enc []byte) {
			j.nodes = append(j.nodes, statestore.NodeBlob{Hash: h, Enc: append([]byte(nil), enc...)})
		})
		return
	}
	j.root = j.tr.Hash(nil)
}

// Root computes the world-state Merkle root over all accounts by syncing
// the persistent tries against the dirty set: storage roots for dirty
// accounts in parallel, then their account-trie leaves, then one
// incremental hash of the account trie.
func (s *StateDB) Root() ethtypes.Hash {
	if s.base != nil {
		panic("state: Root on overlay (cannot see untouched base accounts)")
	}
	if s.rootValid {
		return s.worldRoot
	}

	jobs := make([]storageJob, 0, len(s.dirties))
	hashWork := 0
	for addr, e := range s.dirties {
		o := s.objects[addr]
		j := storageJob{addr: addr, obj: o, collect: s.disk != nil}
		switch {
		case o == nil || (!o.partial && len(o.storage) == 0):
			j.drop = true
		case e.reset:
			j.tr = s.newStorageTrie()
			j.full = true
			hashWork++
		case len(e.slots) > 0:
			dirt := make([]ethtypes.Hash, 0, len(e.slots))
			for slot := range e.slots {
				dirt = append(dirt, slot)
			}
			tr := s.storageTries[addr]
			switch {
			case tr == nil && o.partial:
				// Anchor a lazy trie at the committed root; sync every
				// resident slot (clean residents are no-op rewrites),
				// but only the dirty ones need re-staging to disk.
				tr = trie.NewSecureFromRoot(o.storageRoot, s.disk)
				j.slots = residentSlots(o)
			case tr == nil:
				tr = s.newStorageTrie()
				j.full = true
			default:
				j.slots = dirt
			}
			j.dirt = dirt
			j.tr = tr
			hashWork++
		default:
			// Meta-only change: the storage root is already current.
		}
		jobs = append(jobs, j)
	}

	// Phase 1: storage roots, fanned out when there is enough work.
	workers := runtime.GOMAXPROCS(0)
	if workers > maxStorageHashWorkers {
		workers = maxStorageHashWorkers
	}
	if hashWork >= minParallelJobs && workers > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					jobs[i].run()
				}
			}()
		}
		wg.Wait()
	} else {
		for i := range jobs {
			jobs[i].run()
		}
	}

	// Phase 2: merge results and refresh account-trie leaves (serial:
	// the account trie and the pending batch are shared).
	var p *statestore.Batch
	if s.disk != nil {
		p = s.pendingBatch()
	}
	for i := range jobs {
		j := &jobs[i]
		switch {
		case j.drop:
			delete(s.storageTries, j.addr)
			delete(s.rootCache, j.addr)
			if p != nil {
				// Storage is gone (account deleted, or every slot
				// cleared): wipe the flat slot records too, or a later
				// read-through would resurrect stale values.
				s.stageClear(j.addr)
			}
		case j.tr != nil:
			s.storageTries[j.addr] = j.tr
			s.rootCache[j.addr] = j.root
			if p != nil {
				for _, nb := range j.nodes {
					p.PutNode(nb.Hash, nb.Enc)
				}
				if j.full {
					// Fresh trie from scratch: the flat records must
					// match exactly, so wipe and re-dump.
					s.stageClear(j.addr)
					for slot, val := range j.obj.storage {
						if !val.IsZero() {
							p.PutSlot(j.addr, slot, val.Bytes())
						}
					}
				} else {
					for _, slot := range j.dirt {
						if val, ok := j.obj.storage[slot]; ok && !val.IsZero() {
							p.PutSlot(j.addr, slot, val.Bytes())
						} else {
							p.PutSlot(j.addr, slot, nil)
						}
					}
				}
			}
		}
		o := j.obj
		storageRoot, ok := s.rootCache[j.addr]
		if !ok {
			if o != nil && o.partial {
				storageRoot = o.storageRoot
			} else {
				storageRoot = trie.EmptyRoot
			}
		}
		if o == nil || (o.empty() && storageRoot == trie.EmptyRoot) {
			s.accountTrie.Delete(j.addr[:])
			if p != nil {
				p.PutAccount(j.addr, nil)
			}
			continue
		}
		enc := rlp.Encode(rlp.List(
			rlp.Uint(o.nonce),
			rlp.BigInt(o.balance.ToBig()),
			rlp.Bytes(storageRoot[:]),
			rlp.Bytes(o.codeHash[:]),
		))
		s.accountTrie.Put(j.addr[:], enc)
		if p != nil {
			p.PutAccount(j.addr, &statestore.AccountRecord{
				Nonce:       o.nonce,
				Balance:     o.balance.Bytes(),
				StorageRoot: storageRoot,
				CodeHash:    o.codeHash,
			})
			if o.code != nil && o.codeHash != EmptyCodeHash {
				// Deduplicated against already-stored codes at commit.
				p.PutCode(o.codeHash, o.code)
			}
		}
	}

	s.dirties = make(map[ethtypes.Address]*dirtyEntry)
	if p != nil {
		s.worldRoot = s.accountTrie.HashCollect(func(h ethtypes.Hash, enc []byte) {
			p.PutNode(h, append([]byte(nil), enc...))
		})
	} else {
		s.worldRoot = s.accountTrie.Hash(nil)
	}
	s.rootValid = true
	return s.worldRoot
}

// RebuildRoot recomputes the world root from scratch — fresh tries, no
// caches. It is the oracle the incremental pipeline is property-tested
// against and is intentionally kept on the original (pre-incremental)
// code path.
func (s *StateDB) RebuildRoot() ethtypes.Hash {
	at := trie.NewSecure()
	for addr, o := range s.objects {
		if o.empty() && len(o.storage) == 0 {
			continue
		}
		st := trie.NewSecure()
		for slot, val := range o.storage {
			st.Put(slot[:], rlp.Encode(rlp.Bytes(val.Bytes())))
		}
		storageRoot := st.Hash(nil)
		enc := rlp.Encode(rlp.List(
			rlp.Uint(o.nonce),
			rlp.BigInt(o.balance.ToBig()),
			rlp.Bytes(storageRoot[:]),
			rlp.Bytes(o.codeHash[:]),
		))
		at.Put(addr[:], enc)
	}
	return at.Hash(nil)
}

// Accounts returns the addresses present in state, sorted, for
// inspection tools and tests. In disk mode this merges the store's
// account set with the resident objects (resident wins; accounts
// deleted since the last commit are excluded).
func (s *StateDB) Accounts() []ethtypes.Address {
	out := make([]ethtypes.Address, 0, len(s.objects))
	for a := range s.objects {
		out = append(out, a)
	}
	if s.disk != nil {
		s.disk.ForEachAccount(func(addr ethtypes.Address, _ *statestore.AccountRecord) bool {
			if _, resident := s.objects[addr]; !resident && !s.isDeleted(addr) {
				out = append(out, addr)
			}
			return true
		})
	}
	sort.Slice(out, func(i, j int) bool {
		for k := 0; k < ethtypes.AddressLength; k++ {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

// StorageSlots returns the non-zero slots of one account, for tooling.
func (s *StateDB) StorageSlots(addr ethtypes.Address) map[ethtypes.Hash]uint256.Int {
	o := s.getObject(addr)
	if o == nil {
		return nil
	}
	out := make(map[ethtypes.Hash]uint256.Int, len(o.storage))
	for k, v := range o.storage {
		out[k] = v
	}
	return out
}

// Copy returns an isolated copy of the state (journal not carried over)
// for speculative execution such as eth_call and gas estimation.
//
// The copy is copy-on-write over the shared committed state: account
// headers are duplicated (cheap scalars), while storage maps and the
// persistent tries are shared until either side writes. Trie sharing is
// safe because trie mutation path-copies; map sharing is mediated by the
// per-object shared flag.
func (s *StateDB) Copy() *StateDB {
	cp := &StateDB{
		objects:      make(map[ethtypes.Address]*stateObject, len(s.objects)),
		accountTrie:  s.accountTrie.Snapshot(),
		storageTries: make(map[ethtypes.Address]*trie.Secure, len(s.storageTries)),
		rootCache:    make(map[ethtypes.Address]ethtypes.Hash, len(s.rootCache)),
		dirties:      make(map[ethtypes.Address]*dirtyEntry, len(s.dirties)),
		worldRoot:    s.worldRoot,
		rootValid:    s.rootValid,
		// The disk handle is shared; the pending batch is not — it
		// belongs to whichever state Root()s the dirt.
		disk: s.disk,
	}
	if len(s.deleted) > 0 {
		cp.deleted = make(map[ethtypes.Address]struct{}, len(s.deleted))
		for addr := range s.deleted {
			cp.deleted[addr] = struct{}{}
		}
	}
	for addr, o := range s.objects {
		cp.objects[addr] = cloneShared(o)
	}
	for addr, tr := range s.storageTries {
		cp.storageTries[addr] = tr.Snapshot()
	}
	for addr, h := range s.rootCache {
		cp.rootCache[addr] = h
	}
	for addr, e := range s.dirties {
		ne := &dirtyEntry{reset: e.reset}
		if len(e.slots) > 0 {
			ne.slots = make(map[ethtypes.Hash]struct{}, len(e.slots))
			for slot := range e.slots {
				ne.slots[slot] = struct{}{}
			}
		}
		cp.dirties[addr] = ne
	}
	return cp
}

// TotalBalance sums all account balances — a conservation-law hook for
// property tests. In disk mode, non-resident accounts are summed from
// their committed records (resident objects override; uncommitted
// changes are always resident, so the sum is exact).
func (s *StateDB) TotalBalance() uint256.Int {
	total := uint256.Zero
	if s.disk != nil {
		s.disk.ForEachAccount(func(addr ethtypes.Address, rec *statestore.AccountRecord) bool {
			if _, resident := s.objects[addr]; !resident && !s.isDeleted(addr) {
				total = total.Add(uint256.SetBytes(rec.Balance))
			}
			return true
		})
	}
	for _, o := range s.objects {
		total = total.Add(o.balance)
	}
	return total
}

// AccountDump is a JSON-friendly rendering of one account, for
// inspection tooling.
type AccountDump struct {
	Address  string            `json:"address"`
	Nonce    uint64            `json:"nonce"`
	Balance  string            `json:"balance"`
	CodeSize int               `json:"codeSize,omitempty"`
	Storage  map[string]string `json:"storage,omitempty"`
}

// Dump renders the whole world state (sorted by address) for debugging
// and the inspection CLI. Not for consensus use.
func (s *StateDB) Dump() []AccountDump {
	addrs := s.Accounts()
	out := make([]AccountDump, 0, len(addrs))
	for _, addr := range addrs {
		o := s.objects[addr]
		if o == nil && s.disk != nil {
			// Non-resident disk account: render the flat record. Slot
			// keys are keccak-hashed in the storage trie and the dump
			// is resident-oriented, so storage is omitted here.
			o = loadDiskObject(s.disk, addr)
		}
		if o == nil || (o.empty() && len(o.storage) == 0 &&
			(o.storageRoot == (ethtypes.Hash{}) || o.storageRoot == trie.EmptyRoot)) {
			continue
		}
		d := AccountDump{
			Address:  addr.Hex(),
			Nonce:    o.nonce,
			Balance:  o.balance.String(),
			CodeSize: len(s.codeOf(o)),
		}
		if len(o.storage) > 0 {
			d.Storage = make(map[string]string, len(o.storage))
			for k, v := range o.storage {
				if v.IsZero() {
					continue // partial-object tombstone
				}
				d.Storage[k.Hex()] = v.Hex()
			}
		}
		out = append(out, d)
	}
	return out
}
