package chain

import (
	"os"
	"path/filepath"
	"testing"

	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
)

// Disk-backed state store chain tests: recovery from the store's
// anchor, fallback to full replay when the anchor is unusable, and
// cold-data eviction with read-through. Test names deliberately match
// the persistence-torture (Restart|Torture) Makefile regex so the
// fault-injection gates cover the disk store too.

// openPersistDisk opens a persistent chain with the disk-backed state
// store, an aggressive resident-account ceiling and block-body
// eviction, so the cold paths get exercised by small workloads.
func openPersistDisk(t *testing.T, dir string, accs []wallet.Account) *Blockchain {
	t.Helper()
	bc, err := Open(persistGenesis(accs), WithPersistence(PersistConfig{
		DataDir:             dir,
		SegmentSize:         4096,
		NoSync:              true,
		StateStore:          true,
		StateCacheMB:        1,
		MaxResidentAccounts: 2,
		RetainBlocks:        4,
	}))
	if err != nil {
		t.Fatal(err)
	}
	return bc
}

func TestDiskStoreRestartIdentical(t *testing.T) {
	accs := wallet.DevAccounts("disk persist", 3)
	dir := t.TempDir()

	bc := openPersistDisk(t, dir, accs)
	workload(t, bc, accs, 10)
	want := fingerprint(bc)
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}

	bc2 := openPersistDisk(t, dir, accs)
	defer bc2.Close()
	mustMatchFull(t, want, fingerprint(bc2))
	rep := bc2.RecoveryReport()
	if rep == nil || rep.Dropped() {
		t.Fatalf("clean restart dropped data: %+v", rep)
	}
	// The anchor sits at the head: nothing to replay.
	if !rep.SnapshotUsed || rep.BlocksReplayed != 0 {
		t.Fatalf("anchor restart should replay nothing: %+v", rep)
	}
	tx := signedTx(t, bc2, accs[0], &accs[1].Address, uint256.NewUint64(5), nil, 21000)
	if _, err := bc2.SendTransaction(tx); err != nil {
		t.Fatalf("recovered chain rejects transactions: %v", err)
	}
}

func TestDiskStoreCrashRestartReplaysNothing(t *testing.T) {
	accs := wallet.DevAccounts("disk crash", 3)
	dir := t.TempDir()

	bc := openPersistDisk(t, dir, accs)
	workload(t, bc, accs, 11)
	want := fingerprint(bc)
	// Simulated SIGKILL: no Close. Unlike interval snapshots, the store
	// committed every block's batch, so the anchor is already at the
	// head and recovery replays nothing.

	bc2 := openPersistDisk(t, dir, accs)
	defer bc2.Close()
	mustMatchFull(t, want, fingerprint(bc2))
	rep := bc2.RecoveryReport()
	if !rep.SnapshotUsed || rep.BlocksReplayed != 0 {
		t.Fatalf("crash recovery should resume from the head anchor: %+v", rep)
	}
	if rep.Dropped() {
		t.Fatalf("crash restart dropped data: %+v", rep)
	}
}

func TestDiskStoreTortureTornTailFullReplay(t *testing.T) {
	accs := wallet.DevAccounts("disk torn", 3)
	dir := t.TempDir()

	bc := openPersistDisk(t, dir, accs)
	workload(t, bc, accs, 8)
	want := fingerprint(bc)
	// Crash, then tear the newest block-log segment mid-frame. The
	// store's anchor now points past the recoverable prefix, so it is
	// unusable: recovery must reset the store and re-execute from
	// genesis, rebuilding byte-identical roots.
	segs, err := filepath.Glob(filepath.Join(dir, "blocks-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	tail := segs[len(segs)-1]
	fi, _ := os.Stat(tail)
	if err := os.Truncate(tail, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	bc2 := openPersistDisk(t, dir, accs)
	defer bc2.Close()
	got := fingerprint(bc2)
	if got.height != want.height-1 {
		t.Fatalf("recovered height %d, want %d", got.height, want.height-1)
	}
	mustMatchPrefix(t, want, got)
	rep := bc2.RecoveryReport()
	if rep.SnapshotUsed {
		t.Fatalf("anchor beyond the torn log must not be used: %+v", rep)
	}
	if rep.BlocksReplayed != int(got.height) {
		t.Fatalf("full genesis replay expected: %+v", rep)
	}
	// The reset store re-anchored at the recovered head: a second
	// restart resumes instantly.
	if err := bc2.Close(); err != nil {
		t.Fatal(err)
	}
	bc3 := openPersistDisk(t, dir, accs)
	defer bc3.Close()
	mustMatchPrefix(t, want, fingerprint(bc3))
	if rep := bc3.RecoveryReport(); !rep.SnapshotUsed || rep.BlocksReplayed != 0 {
		t.Fatalf("re-anchored store should replay nothing: %+v", rep)
	}
}

func TestDiskStoreTortureStateDirDeleted(t *testing.T) {
	accs := wallet.DevAccounts("disk statedel", 3)
	dir := t.TempDir()

	bc := openPersistDisk(t, dir, accs)
	workload(t, bc, accs, 9)
	want := fingerprint(bc)
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}

	// Blow away the entire state store; the block log alone must
	// reproduce the chain, byte-identical.
	if err := os.RemoveAll(filepath.Join(dir, "state")); err != nil {
		t.Fatal(err)
	}

	bc2 := openPersistDisk(t, dir, accs)
	defer bc2.Close()
	mustMatchFull(t, want, fingerprint(bc2))
	rep := bc2.RecoveryReport()
	if rep.SnapshotUsed || rep.BlocksReplayed != int(want.height) {
		t.Fatalf("full replay expected after state loss: %+v", rep)
	}
}

func TestDiskStoreTortureCorruptStateSegment(t *testing.T) {
	accs := wallet.DevAccounts("disk corrupt", 3)
	dir := t.TempDir()

	bc := openPersistDisk(t, dir, accs)
	workload(t, bc, accs, 9)
	want := fingerprint(bc)
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte in the middle of the newest state segment. The
	// store's own recovery truncates to the last intact anchor; the
	// chain then replays the gap from the block log.
	segs, err := filepath.Glob(filepath.Join(dir, "state", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no state segments: %v", err)
	}
	tail := segs[len(segs)-1]
	data, err := os.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(tail, data, 0o644); err != nil {
		t.Fatal(err)
	}

	bc2 := openPersistDisk(t, dir, accs)
	defer bc2.Close()
	mustMatchFull(t, want, fingerprint(bc2))
	if err := bc2.PersistErr(); err != nil {
		t.Fatalf("persist error after corrupt-segment recovery: %v", err)
	}
}

func TestDiskStoreBlockEvictionReadThrough(t *testing.T) {
	accs := wallet.DevAccounts("disk evict", 3)
	dir := t.TempDir()

	bc := openPersistDisk(t, dir, accs)
	defer bc.Close()
	workload(t, bc, accs, 12) // RetainBlocks=4: most bodies evict

	v := bc.View()
	if v.blocksBase == 0 {
		t.Fatalf("no block eviction happened (base=0, head=%d)", v.head.Number())
	}
	// Every historical block still resolves, by number and by hash,
	// with the right self-describing header.
	for n := uint64(0); n <= v.head.Number(); n++ {
		b, ok := v.BlockByNumber(n)
		if !ok {
			t.Fatalf("block %d unreachable after eviction", n)
		}
		if b.Number() != n {
			t.Fatalf("block %d read back as %d", n, b.Number())
		}
		byHash, ok := v.BlockByHash(b.Hash())
		if !ok || byHash.Hash() != b.Hash() {
			t.Fatalf("block %d unreachable by hash after eviction", n)
		}
	}
	if _, ok := v.BlockByNumber(v.head.Number() + 1); ok {
		t.Fatal("future block resolved")
	}
	// Logs of evicted blocks read back through the journal, in order
	// and with their original positions.
	logs := v.FilterLogs(FilterQuery{})
	if len(logs) == 0 {
		t.Fatal("no logs")
	}
	sawEvicted := false
	var lastBlock uint64
	for i, l := range logs {
		if l.BlockNumber < lastBlock {
			t.Fatalf("log %d out of order: block %d after %d", i, l.BlockNumber, lastBlock)
		}
		lastBlock = l.BlockNumber
		if l.BlockNumber < v.blocksBase {
			sawEvicted = true
		}
	}
	if !sawEvicted {
		t.Fatalf("no evicted-range logs served (base=%d)", v.blocksBase)
	}
	// A bounded filter over only the evicted range works too.
	to := v.blocksBase - 1
	old := v.FilterLogs(FilterQuery{FromBlock: 1, ToBlock: &to})
	for _, l := range old {
		if l.BlockNumber > to {
			t.Fatalf("out-of-range log from evicted filter: block %d", l.BlockNumber)
		}
	}
	// The resident state stayed bounded.
	if n := bc.st.ResidentAccounts(); n > 8 {
		t.Fatalf("resident accounts not bounded: %d", n)
	}
}
