package chain

import (
	"errors"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/minisol"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
)

// devChain builds a chain with three funded dev accounts.
func devChain(t *testing.T) (*Blockchain, []wallet.Account) {
	t.Helper()
	accs := wallet.DevAccounts("test seed", 3)
	g := DefaultGenesis()
	g.Alloc = wallet.DevAlloc(accs, ethtypes.Ether(100))
	return New(g), accs
}

// signedTx builds and signs a transaction from acc at its next nonce.
func signedTx(t testing.TB, bc *Blockchain, acc wallet.Account, to *ethtypes.Address, value uint256.Int, data []byte, gas uint64) *ethtypes.Transaction {
	t.Helper()
	return rawTx(t, bc, acc, bc.GetNonce(acc.Address), to, value, data, gas)
}

// rawTx signs a transaction with an explicit nonce, for callers that
// track nonces themselves (batches, deliberately invalid nonces).
func rawTx(t testing.TB, bc *Blockchain, acc wallet.Account, nonce uint64, to *ethtypes.Address, value uint256.Int, data []byte, gas uint64) *ethtypes.Transaction {
	t.Helper()
	tx := &ethtypes.Transaction{
		Nonce:    nonce,
		GasPrice: ethtypes.Gwei(1),
		Gas:      gas,
		To:       to,
		Value:    value,
		Data:     data,
	}
	if err := tx.Sign(acc.Key, bc.ChainID()); err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestGenesisState(t *testing.T) {
	bc, accs := devChain(t)
	if bc.BlockNumber() != 0 {
		t.Fatal("genesis height")
	}
	if bc.GetBalance(accs[0].Address) != ethtypes.Ether(100) {
		t.Fatal("genesis alloc")
	}
	if bc.GetNonce(accs[0].Address) != 0 {
		t.Fatal("genesis nonce")
	}
}

func TestSimpleTransferMinesBlock(t *testing.T) {
	bc, accs := devChain(t)
	tx := signedTx(t, bc, accs[0], &accs[1].Address, ethtypes.Ether(5), nil, 21000)
	hash, err := bc.SendTransaction(tx)
	if err != nil {
		t.Fatal(err)
	}
	if bc.BlockNumber() != 1 {
		t.Fatal("block not mined")
	}
	rcpt, ok := bc.GetReceipt(hash)
	if !ok || !rcpt.Succeeded() {
		t.Fatalf("receipt: %+v", rcpt)
	}
	if rcpt.GasUsed != 21000 {
		t.Fatalf("transfer gas = %d", rcpt.GasUsed)
	}
	if bc.GetBalance(accs[1].Address) != ethtypes.Ether(105) {
		t.Fatal("recipient balance")
	}
	// Sender paid value + gas.
	want := ethtypes.Ether(95).Sub(ethtypes.Gwei(1).Mul(uint256.NewUint64(21000)))
	if bc.GetBalance(accs[0].Address) != want {
		t.Fatalf("sender balance %s", ethtypes.FormatEther(bc.GetBalance(accs[0].Address)))
	}
	// Ether is conserved (coinbase got the fees).
	if bc.TotalSupply() != ethtypes.Ether(300) {
		t.Fatalf("supply changed: %s", ethtypes.FormatEther(bc.TotalSupply()))
	}
}

func TestNonceEnforcement(t *testing.T) {
	bc, accs := devChain(t)
	tx := signedTx(t, bc, accs[0], &accs[1].Address, uint256.One, nil, 21000)
	if _, err := bc.SendTransaction(tx); err != nil {
		t.Fatal(err)
	}
	// Replaying is rejected (same hash and stale nonce).
	if _, err := bc.SendTransaction(tx); err == nil {
		t.Fatal("replay accepted")
	}
	// Future nonce rejected.
	future := &ethtypes.Transaction{Nonce: 5, GasPrice: ethtypes.Gwei(1), Gas: 21000, To: &accs[1].Address, Value: uint256.One}
	future.Sign(accs[0].Key, bc.ChainID())
	if _, err := bc.SendTransaction(future); !errors.Is(err, ErrNonceTooHigh) {
		t.Fatalf("err = %v", err)
	}
}

func TestInsufficientFunds(t *testing.T) {
	bc, accs := devChain(t)
	tx := signedTx(t, bc, accs[0], &accs[1].Address, ethtypes.Ether(1000), nil, 21000)
	if _, err := bc.SendTransaction(tx); !errors.Is(err, ErrInsufficientFunds) {
		t.Fatalf("err = %v", err)
	}
}

func TestWrongChainIDRejected(t *testing.T) {
	bc, accs := devChain(t)
	tx := &ethtypes.Transaction{Nonce: 0, GasPrice: ethtypes.Gwei(1), Gas: 21000, To: &accs[1].Address, Value: uint256.One}
	tx.Sign(accs[0].Key, 9999) // wrong chain
	if _, err := bc.SendTransaction(tx); err == nil {
		t.Fatal("cross-chain transaction accepted")
	}
}

const counterSrc = `
contract Counter {
	uint public count;
	event bumped(address indexed who, uint newValue);
	function increment() public { count += 1; emit bumped(msg.sender, count); }
	function fail() public { require(false, "always fails"); }
}`

func deployCounter(t testing.TB, bc *Blockchain, acc wallet.Account) (ethtypes.Address, *minisol.Artifact) {
	t.Helper()
	art, err := minisol.CompileContract(counterSrc, "Counter")
	if err != nil {
		t.Fatal(err)
	}
	tx := signedTx(t, bc, acc, nil, uint256.Zero, art.Bytecode, 2_000_000)
	hash, err := bc.SendTransaction(tx)
	if err != nil {
		t.Fatal(err)
	}
	rcpt, _ := bc.GetReceipt(hash)
	if !rcpt.Succeeded() || rcpt.ContractAddress == nil {
		t.Fatalf("deploy failed: %+v", rcpt)
	}
	return *rcpt.ContractAddress, art
}

func TestContractDeployAndTransact(t *testing.T) {
	bc, accs := devChain(t)
	addr, art := deployCounter(t, bc, accs[0])
	if len(bc.GetCode(addr)) == 0 {
		t.Fatal("no code at contract address")
	}
	input, _ := art.ABI.Pack("increment")
	for i := 0; i < 3; i++ {
		tx := signedTx(t, bc, accs[1], &addr, uint256.Zero, input, 200_000)
		if _, err := bc.SendTransaction(tx); err != nil {
			t.Fatal(err)
		}
	}
	// Read via eth_call.
	q, _ := art.ABI.Pack("count")
	res := bc.Call(accs[1].Address, &addr, q, uint256.Zero, 0)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	vals, _ := art.ABI.Unpack("count", res.Return)
	if vals[0].(uint256.Int).Uint64() != 3 {
		t.Fatalf("count = %v", vals[0])
	}
	// eth_call must not mutate state.
	if bc.BlockNumber() != 4 {
		t.Fatalf("call mined a block: height %d", bc.BlockNumber())
	}
}

func TestRevertedTxMinesWithFailedReceipt(t *testing.T) {
	bc, accs := devChain(t)
	addr, art := deployCounter(t, bc, accs[0])
	input, _ := art.ABI.Pack("fail")
	tx := signedTx(t, bc, accs[0], &addr, uint256.Zero, input, 200_000)
	hash, err := bc.SendTransaction(tx)
	if err != nil {
		t.Fatal(err) // tx mines; failure is in the receipt
	}
	rcpt, _ := bc.GetReceipt(hash)
	if rcpt.Succeeded() {
		t.Fatal("failed call got success receipt")
	}
	if rcpt.RevertReason != "always fails" {
		t.Fatalf("reason = %q", rcpt.RevertReason)
	}
	if len(rcpt.Logs) != 0 {
		t.Fatal("reverted tx must not keep logs")
	}
	// Nonce advanced anyway.
	if bc.GetNonce(accs[0].Address) != 2 {
		t.Fatal("nonce must advance on failed tx")
	}
}

func TestEventFiltering(t *testing.T) {
	bc, accs := devChain(t)
	addr, art := deployCounter(t, bc, accs[0])
	input, _ := art.ABI.Pack("increment")
	for _, acc := range []wallet.Account{accs[0], accs[1], accs[0]} {
		tx := signedTx(t, bc, acc, &addr, uint256.Zero, input, 200_000)
		if _, err := bc.SendTransaction(tx); err != nil {
			t.Fatal(err)
		}
	}
	topic := art.ABI.Events["bumped"].Topic()
	all := bc.FilterLogs(FilterQuery{Addresses: []ethtypes.Address{addr}, Topics: [][]ethtypes.Hash{{topic}}})
	if len(all) != 3 {
		t.Fatalf("all logs = %d", len(all))
	}
	// Filter by indexed sender (topic position 1).
	var senderTopic ethtypes.Hash
	copy(senderTopic[12:], accs[1].Address[:])
	only1 := bc.FilterLogs(FilterQuery{Topics: [][]ethtypes.Hash{{topic}, {senderTopic}}})
	if len(only1) != 1 {
		t.Fatalf("filtered = %d", len(only1))
	}
	// Range filter.
	to := uint64(2)
	early := bc.FilterLogs(FilterQuery{FromBlock: 0, ToBlock: &to})
	if len(early) != 1 {
		t.Fatalf("range = %d", len(early))
	}
	// Decode one.
	dec, err := art.ABI.DecodeLog(all[2])
	if err != nil || dec.Args["newValue"].(uint256.Int).Uint64() != 3 {
		t.Fatalf("decode: %v %v", dec, err)
	}
}

func TestEstimateGas(t *testing.T) {
	bc, accs := devChain(t)
	addr, art := deployCounter(t, bc, accs[0])
	input, _ := art.ABI.Pack("increment")
	est, err := bc.EstimateGas(accs[0].Address, &addr, input, uint256.Zero)
	if err != nil {
		t.Fatal(err)
	}
	// The estimate must be enough to actually run it.
	tx := signedTx(t, bc, accs[0], &addr, uint256.Zero, input, est)
	hash, err := bc.SendTransaction(tx)
	if err != nil {
		t.Fatal(err)
	}
	rcpt, _ := bc.GetReceipt(hash)
	if !rcpt.Succeeded() {
		t.Fatalf("estimated gas %d insufficient (used %d)", est, rcpt.GasUsed)
	}
	// Estimating a reverting call surfaces the reason.
	failIn, _ := art.ABI.Pack("fail")
	if _, err := bc.EstimateGas(accs[0].Address, &addr, failIn, uint256.Zero); err == nil {
		t.Fatal("estimate of reverting call succeeded")
	}
}

func TestAdjustTime(t *testing.T) {
	bc, accs := devChain(t)
	t0 := bc.Head().Header.Time
	bc.AdjustTime(3600)
	tx := signedTx(t, bc, accs[0], &accs[1].Address, uint256.One, nil, 21000)
	if _, err := bc.SendTransaction(tx); err != nil {
		t.Fatal(err)
	}
	if got := bc.Head().Header.Time; got != t0+3601 {
		t.Fatalf("time = %d, want %d", got, t0+3601)
	}
}

// TestAdjustTimeSurvivesRejectedTx pins that a pending AdjustTime offset
// belongs to the next block that actually seals: a transaction rejected
// at execution (insufficient funds) seals nothing and must not consume
// it.
func TestAdjustTimeSurvivesRejectedTx(t *testing.T) {
	bc, accs := devChain(t)
	t0 := bc.Head().Header.Time
	bc.AdjustTime(3600)
	poor := signedTx(t, bc, accs[0], &accs[1].Address, ethtypes.Ether(1000), nil, 21000)
	if _, err := bc.SendTransaction(poor); !errors.Is(err, ErrInsufficientFunds) {
		t.Fatalf("underfunded transfer: err = %v", err)
	}
	if bc.BlockNumber() != 0 {
		t.Fatalf("rejected transaction sealed block %d", bc.BlockNumber())
	}
	tx := signedTx(t, bc, accs[0], &accs[1].Address, uint256.One, nil, 21000)
	if _, err := bc.SendTransaction(tx); err != nil {
		t.Fatal(err)
	}
	if got := bc.Head().Header.Time; got != t0+3601 {
		t.Fatalf("time = %d, want %d", got, t0+3601)
	}
	// The offset is consumed once: the following block is parent+1.
	tx = signedTx(t, bc, accs[0], &accs[1].Address, uint256.One, nil, 21000)
	if _, err := bc.SendTransaction(tx); err != nil {
		t.Fatal(err)
	}
	if got := bc.Head().Header.Time; got != t0+3602 {
		t.Fatalf("time after consumed offset = %d, want %d", got, t0+3602)
	}
}

func TestBlockLinkage(t *testing.T) {
	bc, accs := devChain(t)
	for i := 0; i < 5; i++ {
		tx := signedTx(t, bc, accs[0], &accs[1].Address, uint256.One, nil, 21000)
		if _, err := bc.SendTransaction(tx); err != nil {
			t.Fatal(err)
		}
	}
	for n := uint64(1); n <= 5; n++ {
		b, ok := bc.BlockByNumber(n)
		if !ok {
			t.Fatalf("missing block %d", n)
		}
		parent, _ := bc.BlockByNumber(n - 1)
		if b.Header.ParentHash != parent.Hash() {
			t.Fatalf("block %d not linked to parent", n)
		}
		if got, ok := bc.BlockByHash(b.Hash()); !ok || got != b {
			t.Fatal("hash index broken")
		}
	}
}

func TestStateRootEvolves(t *testing.T) {
	bc, accs := devChain(t)
	r0 := bc.StateRoot()
	tx := signedTx(t, bc, accs[0], &accs[1].Address, ethtypes.Ether(1), nil, 21000)
	bc.SendTransaction(tx)
	r1 := bc.StateRoot()
	if r0 == r1 {
		t.Fatal("state root unchanged after transfer")
	}
	if bc.Head().Header.StateRoot != r1 {
		t.Fatal("header state root stale")
	}
}

func TestDevAccountsDeterministic(t *testing.T) {
	a := wallet.DevAccounts("seed-x", 5)
	b := wallet.DevAccounts("seed-x", 5)
	for i := range a {
		if a[i].Address != b[i].Address {
			t.Fatal("dev accounts not deterministic")
		}
	}
	c := wallet.DevAccounts("seed-y", 1)
	if c[0].Address == a[0].Address {
		t.Fatal("different seeds collided")
	}
}

func BenchmarkTransferTx(b *testing.B) {
	accs := wallet.DevAccounts("bench", 2)
	g := DefaultGenesis()
	g.Alloc = wallet.DevAlloc(accs, ethtypes.Ether(1_000_000))
	bc := New(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := &ethtypes.Transaction{
			Nonce: uint64(i), GasPrice: ethtypes.Gwei(1), Gas: 21000,
			To: &accs[1].Address, Value: uint256.One,
		}
		tx.Sign(accs[0].Key, bc.ChainID())
		if _, err := bc.SendTransaction(tx); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGasRefundReducesReceiptGas: clearing a storage slot earns the
// EIP-2200 refund, visible as a cheaper receipt than the slot-setting tx.
func TestGasRefundReducesReceiptGas(t *testing.T) {
	bc, accs := devChain(t)
	src := `
	contract Slots {
		uint public v;
		function set() public { v = 1; }
		function clear() public { v = 0; }
	}`
	art, err := minisol.CompileContract(src, "Slots")
	if err != nil {
		t.Fatal(err)
	}
	tx := signedTx(t, bc, accs[0], nil, uint256.Zero, art.Bytecode, 2_000_000)
	hash, err := bc.SendTransaction(tx)
	if err != nil {
		t.Fatal(err)
	}
	rcpt, _ := bc.GetReceipt(hash)
	addr := *rcpt.ContractAddress

	setIn, _ := art.ABI.Pack("set")
	clearIn, _ := art.ABI.Pack("clear")
	setTx := signedTx(t, bc, accs[0], &addr, uint256.Zero, setIn, 200_000)
	setHash, _ := bc.SendTransaction(setTx)
	setRcpt, _ := bc.GetReceipt(setHash)

	clearTx := signedTx(t, bc, accs[0], &addr, uint256.Zero, clearIn, 200_000)
	clearHash, _ := bc.SendTransaction(clearTx)
	clearRcpt, _ := bc.GetReceipt(clearHash)

	if !setRcpt.Succeeded() || !clearRcpt.Succeeded() {
		t.Fatal("txs failed")
	}
	// The set pays the 20k SSTORE; the clear gets the 15k refund (capped
	// at half the gas used), so it must be much cheaper.
	if clearRcpt.GasUsed*2 > setRcpt.GasUsed {
		t.Fatalf("refund not applied: set=%d clear=%d", setRcpt.GasUsed, clearRcpt.GasUsed)
	}
	// Ether stays conserved through refunds.
	if bc.TotalSupply() != ethtypes.Ether(300) {
		t.Fatal("supply drifted through refund accounting")
	}
}

// BenchmarkEthCall_Snapshot measures a read-only eth_call against a
// populated chain. Dominated by StateDB.Copy before copy-on-write; now
// the snapshot is O(accounts) header clones plus O(1) trie snapshots.
func BenchmarkEthCall_Snapshot(b *testing.B) {
	accs := wallet.DevAccounts("bench-call", 2)
	g := DefaultGenesis()
	g.Alloc = wallet.DevAlloc(accs, ethtypes.Ether(1_000_000))
	bc := New(g)
	// Bloat the world state so the per-call snapshot cost is visible.
	for i := 0; i < 500; i++ {
		var a ethtypes.Address
		a[17] = 0xbb
		a[18] = byte(i >> 8)
		a[19] = byte(i)
		tx := &ethtypes.Transaction{
			Nonce: uint64(i), GasPrice: ethtypes.Gwei(1), Gas: 21000,
			To: &a, Value: uint256.One,
		}
		tx.Sign(accs[0].Key, bc.ChainID())
		if _, err := bc.SendTransaction(tx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := bc.Call(accs[0].Address, &accs[1].Address, nil, uint256.One, 0)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}
