package chain

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
)

func TestBatchMineBlock(t *testing.T) {
	bc, accs := devChain(t)
	// Queue three transfers from two senders, out of order.
	tx0 := signedTx(t, bc, accs[0], &accs[2].Address, uint256.NewUint64(100), nil, 21000)
	tx1 := &ethtypes.Transaction{Nonce: 1, GasPrice: ethtypes.Gwei(1), Gas: 21000, To: &accs[2].Address, Value: uint256.NewUint64(200)}
	tx1.Sign(accs[0].Key, bc.ChainID())
	txB := signedTx(t, bc, accs[1], &accs[2].Address, uint256.NewUint64(300), nil, 21000)

	// Submit the second-nonce tx first: ordering must fix it.
	for _, tx := range []*ethtypes.Transaction{tx1, txB, tx0} {
		if _, err := bc.SubmitTransaction(tx); err != nil {
			t.Fatal(err)
		}
	}
	if bc.PendingCount() != 3 {
		t.Fatalf("pending = %d", bc.PendingCount())
	}
	block, failed := bc.MineBlock()
	if len(failed) != 0 {
		t.Fatalf("failed txs: %v", failed)
	}
	if bc.PendingCount() != 0 {
		t.Fatal("pool not drained")
	}
	if len(block.Transactions) != 3 {
		t.Fatalf("block txs = %d", len(block.Transactions))
	}
	if block.Header.GasUsed != 3*21000 {
		t.Fatalf("block gas = %d", block.Header.GasUsed)
	}
	// Receipts carry per-block indexes and cumulative gas.
	seen := map[uint]bool{}
	for _, tx := range block.Transactions {
		rcpt, ok := bc.GetReceipt(tx.Hash())
		if !ok || !rcpt.Succeeded() {
			t.Fatalf("receipt for %s", tx.Hash())
		}
		seen[rcpt.TxIndex] = true
		if rcpt.CumulativeGasUsed != uint64(rcpt.TxIndex+1)*21000 {
			t.Fatalf("cumulative gas at idx %d = %d", rcpt.TxIndex, rcpt.CumulativeGasUsed)
		}
	}
	if len(seen) != 3 {
		t.Fatal("tx indexes not distinct")
	}
	if bc.GetBalance(accs[2].Address).Sub(ethtypes.Ether(100)).Uint64() != 600 {
		t.Fatal("transfers not applied")
	}
}

func TestMineBlockDropsBadNonce(t *testing.T) {
	bc, accs := devChain(t)
	good := signedTx(t, bc, accs[0], &accs[1].Address, uint256.One, nil, 21000)
	gap := &ethtypes.Transaction{Nonce: 5, GasPrice: ethtypes.Gwei(1), Gas: 21000, To: &accs[1].Address, Value: uint256.One}
	gap.Sign(accs[0].Key, bc.ChainID())
	bc.SubmitTransaction(good)
	bc.SubmitTransaction(gap)
	block, failed := bc.MineBlock()
	if len(block.Transactions) != 1 {
		t.Fatalf("included = %d", len(block.Transactions))
	}
	if err, ok := failed[gap.Hash()]; !ok || err == nil {
		t.Fatal("gap nonce not reported")
	}
}

func TestMineEmptyBlock(t *testing.T) {
	bc, _ := devChain(t)
	bc.AdjustTime(500)
	block, failed := bc.MineBlock()
	if len(failed) != 0 || len(block.Transactions) != 0 {
		t.Fatal("empty mine")
	}
	if block.Number() != 1 {
		t.Fatal("height")
	}
	if block.Header.Time < 1_700_000_000+500 {
		t.Fatal("time adjustment not applied")
	}
}

func TestSubmitDuplicateRejected(t *testing.T) {
	bc, accs := devChain(t)
	tx := signedTx(t, bc, accs[0], &accs[1].Address, uint256.One, nil, 21000)
	if _, err := bc.SubmitTransaction(tx); err != nil {
		t.Fatal(err)
	}
	if _, err := bc.SubmitTransaction(tx); err != ErrKnownTransaction {
		t.Fatalf("dup: %v", err)
	}
	bc.MineBlock()
	// Already mined: resubmission rejected too.
	if _, err := bc.SubmitTransaction(tx); err != ErrKnownTransaction {
		t.Fatalf("mined dup: %v", err)
	}
}

func TestTraceCall(t *testing.T) {
	bc, accs := devChain(t)
	addr, art := deployCounter(t, bc, accs[0])
	input, _ := art.ABI.Pack("increment")
	res, trace := bc.TraceCall(accs[0].Address, &addr, input, 0)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(trace.Logs) == 0 {
		t.Fatal("no trace steps")
	}
	if trace.OpCount["SSTORE"] == 0 {
		t.Fatalf("increment trace lacks SSTORE: %v", trace.OpCount)
	}
	// Tracing is read-only: state untouched.
	q, _ := art.ABI.Pack("count")
	out := bc.Call(accs[0].Address, &addr, q, uint256.Zero, 0)
	if uint256.SetBytes(out.Return).Uint64() != 0 {
		t.Fatal("trace mutated state")
	}
	// Tracing a reverting call captures the fault.
	failIn, _ := art.ABI.Pack("fail")
	res, trace = bc.TraceCall(accs[0].Address, &addr, failIn, 0)
	if res.Err == nil {
		t.Fatal("revert not reported")
	}
	if trace.OpCount["REVERT"] == 0 {
		t.Fatal("REVERT not traced")
	}
}

func TestBatchAndInstantInterleave(t *testing.T) {
	bc, accs := devChain(t)
	// Instant tx, then batch, then instant again: nonces stay coherent.
	tx := signedTx(t, bc, accs[0], &accs[1].Address, uint256.One, nil, 21000)
	if _, err := bc.SendTransaction(tx); err != nil {
		t.Fatal(err)
	}
	tx2 := signedTx(t, bc, accs[0], &accs[1].Address, uint256.One, nil, 21000)
	bc.SubmitTransaction(tx2)
	if _, failed := bc.MineBlock(); len(failed) != 0 {
		t.Fatalf("batch failed: %v", failed)
	}
	tx3 := signedTx(t, bc, accs[0], &accs[1].Address, uint256.One, nil, 21000)
	if _, err := bc.SendTransaction(tx3); err != nil {
		t.Fatal(err)
	}
	if bc.GetNonce(accs[0].Address) != 3 {
		t.Fatalf("nonce = %d", bc.GetNonce(accs[0].Address))
	}
	if bc.BlockNumber() != 3 {
		t.Fatalf("height = %d", bc.BlockNumber())
	}
}

// batchKind labels what a generated batch transaction is meant to
// exercise, so the property test can predict its fate.
type batchKind int

const (
	kindTransfer batchKind = iota
	kindCall
	kindRevert
	kindNonceGap
	kindUnderfunded
)

// genTx is one generated batch transaction with the sender and kind the
// oracle needs.
type genTx struct {
	tx     *ethtypes.Transaction
	sender ethtypes.Address
	kind   batchKind
}

// genBatch draws one seeded batch: transfers with overlapping senders
// and recipients, shared-slot contract calls, reverts, nonce gaps and
// underfunded transfers. Nonces track only the transactions expected
// to be admissible, so gaps and underfunded txs collide with their
// sender's later ones.
func genBatch(t *testing.T, rng *rand.Rand, bc *Blockchain, accs []wallet.Account, counter ethtypes.Address, incIn, failIn []byte, n int) []genTx {
	t.Helper()
	nonces := make(map[ethtypes.Address]uint64, len(accs))
	for _, a := range accs {
		nonces[a.Address] = bc.GetNonce(a.Address)
	}
	out := make([]genTx, 0, n)
	for i := 0; i < n; i++ {
		acc := accs[rng.Intn(len(accs))]
		to := accs[rng.Intn(len(accs))].Address
		nonce := nonces[acc.Address]
		var g genTx
		switch k := rng.Intn(10); {
		case k < 4:
			val := uint256.NewUint64(1 + rng.Uint64()%1_000_000)
			g = genTx{rawTx(t, bc, acc, nonce, &to, val, nil, 21000), acc.Address, kindTransfer}
			nonces[acc.Address]++
		case k < 7:
			g = genTx{rawTx(t, bc, acc, nonce, &counter, uint256.Zero, incIn, 200_000), acc.Address, kindCall}
			nonces[acc.Address]++
		case k < 8:
			g = genTx{rawTx(t, bc, acc, nonce, &counter, uint256.Zero, failIn, 200_000), acc.Address, kindRevert}
			nonces[acc.Address]++
		case k < 9:
			g = genTx{rawTx(t, bc, acc, nonce+3, &to, uint256.One, nil, 21000), acc.Address, kindNonceGap}
		default:
			g = genTx{rawTx(t, bc, acc, nonce, &to, ethtypes.Ether(100_000), nil, 21000), acc.Address, kindUnderfunded}
		}
		out = append(out, g)
	}
	return out
}

// expectDropped walks the batch in MineBlock's execution order — by
// sender, then nonce, then submission — and returns the error class
// each dropped transaction must carry: a nonce mismatch for anything
// off its sender's running nonce, insufficient funds for an underfunded
// transfer at the right nonce. A nonce gap that later same-sender
// transactions close is included, like any other valid transaction.
func expectDropped(bc *Blockchain, batch []genTx) map[ethtypes.Hash]error {
	order := make([]int, len(batch))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := batch[order[i]], batch[order[j]]
		if c := bytes.Compare(a.sender[:], b.sender[:]); c != 0 {
			return c < 0
		}
		return a.tx.Nonce < b.tx.Nonce
	})
	next := map[ethtypes.Address]uint64{}
	want := map[ethtypes.Hash]error{}
	for _, i := range order {
		g := batch[i]
		expected, ok := next[g.sender]
		if !ok {
			expected = bc.GetNonce(g.sender)
		}
		switch {
		case g.tx.Nonce != expected:
			want[g.tx.Hash()] = nonceErr(g.tx.Nonce, expected)
		case g.kind == kindUnderfunded:
			want[g.tx.Hash()] = ErrInsufficientFunds
		default:
			expected++
		}
		next[g.sender] = expected
	}
	return want
}

// TestMineBlockBatchProperties is the property test of batch mining:
// seeded random batches of transfers, shared-slot contract calls,
// reverts, nonce gaps and underfunded transfers must drop exactly the
// transactions the nonce/funds oracle predicts (with the predicted
// error), conserve total supply, keep the incremental state root equal
// to a from-scratch rebuild, and journal a chain that a crash restart
// replays to the identical head and state root.
func TestMineBlockBatchProperties(t *testing.T) {
	accs := wallet.DevAccounts("batch props", 6)
	dir := t.TempDir()
	bc := openPersist(t, dir, accs, 1<<20) // no periodic snapshot: restart replays every batch
	supply := bc.TotalSupply()
	// increment() writes slot 0, so every call touches shared storage;
	// fail() reverts but still mines a failed receipt.
	counter, art := deployCounter(t, bc, accs[0])
	incIn, _ := art.ABI.Pack("increment")
	failIn, _ := art.ABI.Pack("fail")

	rng := rand.New(rand.NewSource(0xC0FFEE))
	rounds := 6
	if race {
		rounds = 3
	}
	var nonceDrops, fundsDrops int
	for round := 0; round < rounds; round++ {
		batch := genBatch(t, rng, bc, accs, counter, incIn, failIn, 18)
		want := expectDropped(bc, batch)
		for _, g := range batch {
			if _, err := bc.SubmitTransaction(g.tx); err != nil {
				t.Fatal(err)
			}
		}
		block, failed := bc.MineBlock()
		if len(failed) != len(want) {
			t.Fatalf("round %d: dropped %d txs %v, want %d %v", round, len(failed), failed, len(want), want)
		}
		for h, class := range want {
			if err, ok := failed[h]; !ok || !errors.Is(err, class) {
				t.Fatalf("round %d: tx %x dropped with %v, want %v", round, h, err, class)
			}
			if class == ErrInsufficientFunds {
				fundsDrops++
			} else {
				nonceDrops++
			}
		}
		if got := len(block.Transactions); got != len(batch)-len(want) {
			t.Fatalf("round %d: included %d of %d with %d dropped", round, got, len(batch), len(want))
		}
		if got := bc.TotalSupply(); got != supply {
			t.Fatalf("round %d: supply %s, want %s", round, ethtypes.FormatEther(got), ethtypes.FormatEther(supply))
		}
		if root, rebuilt := bc.st.Root(), bc.st.RebuildRoot(); root != rebuilt {
			t.Fatalf("round %d: incremental root %x, rebuilt %x", round, root, rebuilt)
		}
	}
	if nonceDrops == 0 || fundsDrops == 0 {
		t.Fatalf("generator exercised %d nonce and %d funds drops; want both", nonceDrops, fundsDrops)
	}
	if err := bc.PersistErr(); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(bc)

	// Simulated crash: reopen without Close, re-executing every block.
	bc2 := openPersist(t, dir, accs, 1<<20)
	defer bc2.Close()
	mustMatchFull(t, want, fingerprint(bc2))
	if rep := bc2.RecoveryReport(); rep.BlocksReplayed != int(want.height) || rep.Dropped() {
		t.Fatalf("restart did not replay the whole chain cleanly: %+v", rep)
	}
}
