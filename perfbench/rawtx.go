package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"strconv"
	"strings"
	"sync"
	"time"

	"legalchain/internal/contracts"
	"legalchain/internal/ethtypes"
	"legalchain/internal/hexutil"
	"legalchain/internal/uint256"
	"legalchain/internal/wallet"
)

var gasPrice = ethtypes.Gwei(1)

// selector is the 4-byte ABI selector of a function signature.
func selector(sig string) []byte {
	h := ethtypes.Keccak256([]byte(sig))
	return h[:4]
}

// word is v as one 32-byte ABI word.
func word(v uint64) []byte {
	var w [32]byte
	binary.BigEndian.PutUint64(w[24:], v)
	return w[:]
}

// rentalCreation is BaseRental's creation code with its constructor
// arguments (rent, deposit, months, house) ABI-encoded.
func rentalCreation(t terms) []byte {
	code := append([]byte(nil), contracts.MustArtifact("BaseRental").Bytecode...)
	code = append(code, word(t.rentWei)...)
	code = append(code, word(t.depositWei)...)
	code = append(code, word(t.Months)...)
	code = append(code, word(4*32)...)
	code = append(code, word(uint64(len(t.House)))...)
	padded := make([]byte, (len(t.House)+31)/32*32)
	copy(padded, t.House)
	return append(code, padded...)
}

// rawWallet is one rawtx sender: its account, its rentals and the
// transactions it will send.
type rawWallet struct {
	acct    wallet.Account
	rentals []ethtypes.Address
	rents   []uint64
	txs     [][]byte
	inputs  []rawTxInput
	nonce0  uint64 // nonce of its first timed transaction
	sent    int
}

// rawtxState is what the rawtx set-up leaves for the timed phase.
type rawtxState struct {
	wallets    []*rawWallet
	recipients []ethtypes.Address
	ks         *wallet.Keystore
	chainID    uint64
}

// sendSigned signs tx as from, sends it and waits for a successful
// receipt; set-up transactions are checked like timed ones.
func sendSigned(c *client, ks *wallet.Keystore, chainID uint64, from ethtypes.Address, tx *ethtypes.Transaction) (*receiptJSON, error) {
	if err := ks.SignTx(from, tx, chainID); err != nil {
		return nil, err
	}
	var hash string
	if err := c.call(&hash, "eth_sendRawTransaction", hexutil.Encode(tx.Encode())); err != nil {
		return nil, err
	}
	return waitReceipt(c, hash, nil)
}

type receiptJSON struct {
	Status          string `json:"status"`
	ContractAddress string `json:"contractAddress"`
}

// waitReceipt polls eth_getTransactionReceipt until the receipt
// exists; each poll is a read sample when s is non-nil.
func waitReceipt(c *client, hash string, s *sink) (*receiptJSON, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		var r *receiptJSON
		get := func() error { return c.call(&r, "eth_getTransactionReceipt", hash) }
		var err error
		if s != nil {
			err = s.timed("read", &s.reads, get)
		} else {
			err = get()
		}
		if err != nil {
			return nil, err
		}
		if r != nil {
			if r.Status != "0x1" {
				return r, fmt.Errorf("tx %s: receipt status %s", hash, r.Status)
			}
			return r, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("tx %s: no receipt after 30s", hash)
		}
		time.Sleep(time.Millisecond)
	}
}

func nonceOf(c *client, a ethtypes.Address) (uint64, error) {
	var hex string
	if err := c.call(&hex, "eth_getTransactionCount", a.Hex(), "latest"); err != nil {
		return 0, err
	}
	return strconv.ParseUint(strings.TrimPrefix(hex, "0x"), 16, 64)
}

// setupRawtx funds the two wallets and a deployer from the faucet,
// deploys each wallet's rentals and confirms them as the wallet.
func setupRawtx(n *node, c *client, p *plan) (*rawtxState, error) {
	accts := wallet.DevAccounts(p.Accounts, 3)
	st := &rawtxState{ks: wallet.NewKeystore(), chainID: n.bc.ChainID()}
	st.ks.Import(n.faucet.Key)
	for _, a := range accts {
		st.ks.Import(a.Key)
	}
	for _, r := range p.Recipients {
		st.recipients = append(st.recipients, ethtypes.HexToAddress(r))
	}
	deployer := accts[0]
	faucetNonce, err := nonceOf(c, n.faucet.Address)
	if err != nil {
		return nil, err
	}
	for i, a := range accts {
		to := a.Address
		tx := &ethtypes.Transaction{Nonce: faucetNonce + uint64(i), GasPrice: gasPrice, Gas: 21000, To: &to, Value: ethtypes.Ether(1000)}
		if _, err := sendSigned(c, st.ks, st.chainID, n.faucet.Address, tx); err != nil {
			return nil, fmt.Errorf("funding %s: %w", a.Address.Hex(), err)
		}
	}
	var deployNonce uint64
	for w := 0; w < 2; w++ {
		rw := &rawWallet{acct: accts[1+w], inputs: p.RawTxs[w]}
		for _, t := range p.Rentals[w] {
			tx := &ethtypes.Transaction{Nonce: deployNonce, GasPrice: gasPrice, Gas: 3_000_000, Data: rentalCreation(t)}
			r, err := sendSigned(c, st.ks, st.chainID, deployer.Address, tx)
			if err != nil {
				return nil, fmt.Errorf("deploying rental: %w", err)
			}
			addr := ethtypes.CreateAddress(deployer.Address, deployNonce)
			deployNonce++
			if !strings.EqualFold(r.ContractAddress, addr.Hex()) {
				return nil, fmt.Errorf("rental deployed at %s, want %s", r.ContractAddress, addr.Hex())
			}
			confirm := &ethtypes.Transaction{Nonce: rw.nonce0, GasPrice: gasPrice, Gas: 200_000, To: &addr,
				Value: uint256.NewUint64(t.depositWei), Data: selector("confirmAgreement()")}
			if _, err := sendSigned(c, st.ks, st.chainID, rw.acct.Address, confirm); err != nil {
				return nil, fmt.Errorf("confirming rental: %w", err)
			}
			rw.nonce0++
			rw.rentals = append(rw.rentals, addr)
			rw.rents = append(rw.rents, t.rentWei)
		}
		st.wallets = append(st.wallets, rw)
	}
	return st, nil
}

// sign signs every wallet's planned transactions, one goroutine per
// wallet, and returns the SignTx durations when tr is on.
func (st *rawtxState) sign(signMs *series) error {
	var wg sync.WaitGroup
	errs := make([]error, len(st.wallets))
	for i, w := range st.wallets {
		wg.Add(1)
		go func(i int, w *rawWallet) {
			defer wg.Done()
			for j, in := range w.inputs {
				tx := &ethtypes.Transaction{Nonce: w.nonce0 + uint64(j), GasPrice: gasPrice}
				if in.PayRent {
					to := w.rentals[in.Rental]
					tx.To, tx.Gas, tx.Value, tx.Data = &to, 250_000, uint256.NewUint64(w.rents[in.Rental]), selector("payRent()")
				} else {
					to := st.recipients[in.Recipient]
					tx.To, tx.Gas, tx.Value = &to, 21000, uint256.NewUint64(in.ValueWei)
				}
				t0 := time.Now()
				if err := st.ks.SignTx(w.acct.Address, tx, st.chainID); err != nil {
					errs[i] = err
					return
				}
				signMs.add(time.Since(t0))
				w.txs = append(w.txs, tx.Encode())
			}
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runRawtx sends one wallet's transactions in a closed loop until ctx
// ends or the supply runs out; it returns when it stopped.
func runRawtx(ctx context.Context, c *client, w *rawWallet, s *sink) time.Time {
	for w.sent < len(w.txs) && ctx.Err() == nil {
		raw := hexutil.Encode(w.txs[w.sent])
		t0 := time.Now()
		var hash string
		err := c.call(&hash, "eth_sendRawTransaction", raw)
		if err == nil {
			_, err = waitReceipt(c, hash, s)
		}
		s.tally.record("write", err)
		if err != nil {
			s.writes.addMs(math.Inf(1))
		} else {
			s.writes.add(time.Since(t0))
		}
		w.sent++
	}
	return time.Now()
}

// checkRawtx verifies nonces and recipient balances after the run.
func checkRawtx(c *client, st *rawtxState, s *sink) {
	want := make([]*big.Int, len(st.recipients))
	for i := range want {
		want[i] = new(big.Int)
	}
	for _, w := range st.wallets {
		for _, in := range w.inputs[:w.sent] {
			if !in.PayRent {
				want[in.Recipient].Add(want[in.Recipient], new(big.Int).SetUint64(in.ValueWei))
			}
		}
		nonce, err := nonceOf(c, w.acct.Address)
		if err == nil && nonce != w.nonce0+uint64(w.sent) {
			err = fmt.Errorf("wallet %s nonce %d, want %d", w.acct.Address.Hex(), nonce, w.nonce0+uint64(w.sent))
		}
		s.check("nonce", err)
	}
	for i, r := range st.recipients {
		var hex string
		err := c.call(&hex, "eth_getBalance", r.Hex(), "latest")
		if err == nil {
			got, ok := new(big.Int).SetString(strings.TrimPrefix(hex, "0x"), 16)
			if !ok || got.Cmp(want[i]) != 0 {
				err = fmt.Errorf("recipient %s balance %s, want %s", r.Hex(), hex, want[i])
			}
		}
		s.check("balance", err)
	}
}
