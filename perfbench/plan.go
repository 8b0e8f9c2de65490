package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
)

// Sizes of the seeded inputs. The rawtx supply is a per-wallet rate
// cap: a wallet that sends faster than rawtxRateCap txs/s runs out
// before the timed phase ends, and the report says so.
const (
	lifecycleInputs = 64 // distinct term sets the lifecycle loop cycles through
	readsSingle     = 4  // reads population: agreements with one version
	readsChained    = 1  // reads population: agreements with four versions
	chainedVersions = 4
	readsOpsPerKind = 1024 // per client, per read kind
	rawtxRentals    = 2    // rentals each rawtx wallet is tenant of
	rawtxRecipients = 8
	rawtxRateCap    = 60 // txs per second per wallet the signed supply covers
	setupRuns       = 5  // set-ups per run; setup_s is their median
)

// terms is the JSON body of a deploy, or the terms of a modify.
type terms struct {
	RentEth        string `json:"rentEth"`
	DepositEth     string `json:"depositEth"`
	Months         uint64 `json:"months"`
	House          string `json:"house"`
	MaintenanceEth string `json:"maintenanceEth,omitempty"`
	FineEth        string `json:"fineEth,omitempty"`
	Document       string `json:"document"`

	rentWei, depositWei uint64
}

// lifecycleInput is one Fig. 4 run: the deploy terms and the terms of
// its one modification.
type lifecycleInput struct {
	Deploy terms `json:"deploy"`
	Modify terms `json:"modify"`
}

// readOp is one read of the reads workload: a kind and the index of
// the contract version it targets.
type readOp struct {
	Kind   string `json:"kind"`
	Target int    `json:"target"`
}

// rawTxInput is one unsigned rawtx transaction: payRent on the
// wallet's rental Rental, or a transfer of ValueWei to Recipient.
type rawTxInput struct {
	PayRent   bool   `json:"payRent"`
	Rental    int    `json:"rental"`
	Recipient int    `json:"recipient"`
	ValueWei  uint64 `json:"valueWei"`
}

// plan is every input of one run, derived from the seed alone.
type plan struct {
	Workload   string           `json:"workload"`
	Seed       int64            `json:"seed"`
	Lifecycles []lifecycleInput `json:"lifecycles"`
	Single     []lifecycleInput `json:"single,omitempty"`
	SinglePays []int            `json:"singlePays,omitempty"`
	Chained    []lifecycleInput `json:"chained,omitempty"`
	ChainMods  [][]terms        `json:"chainMods,omitempty"`
	Reads      [][]readOp       `json:"reads,omitempty"`
	Rentals    [][]terms        `json:"rentals,omitempty"`
	RawTxs     [][]rawTxInput   `json:"rawTxs,omitempty"`
	Recipients []string         `json:"recipients,omitempty"`
	Accounts   string           `json:"accounts,omitempty"`
}

// eth renders wei as the decimal ether string the REST API parses.
func eth(wei uint64) string {
	return fmt.Sprintf("%d.%018d", wei/1e18, wei%1e18)
}

func between(rng *rand.Rand, lo, hi uint64) uint64 {
	return lo + uint64(rng.Int63n(int64(hi-lo)))
}

func genTerms(rng *rand.Rand, i int) terms {
	t := terms{
		rentWei:    between(rng, 1e14, 1e15),
		depositWei: between(rng, 1e15, 5e15),
		Months:     uint64(6 + rng.Intn(19)),
		House:      fmt.Sprintf("%05d-Strasse-%d", rng.Intn(100000), 1+rng.Intn(200)),
	}
	t.RentEth, t.DepositEth = eth(t.rentWei), eth(t.depositWei)
	doc := make([]byte, 48)
	rng.Read(doc)
	t.Document = fmt.Sprintf("%%PDF-1.4 rental agreement %d %x", i, doc)
	return t
}

func genModify(rng *rand.Rand, i int) terms {
	t := genTerms(rng, i)
	t.MaintenanceEth = eth(between(rng, 1e13, 1e14))
	t.FineEth = eth(t.depositWei / 4)
	t.Document = "amended " + t.Document
	return t
}

func genLifecycle(rng *rand.Rand, i int) lifecycleInput {
	return lifecycleInput{Deploy: genTerms(rng, i), Modify: genModify(rng, i)}
}

// makePlan derives every input of a run from the seed. seconds sizes
// the rawtx supply.
func makePlan(workload string, seed int64, seconds int) *plan {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{Workload: workload, Seed: seed}
	for i := 0; i < lifecycleInputs; i++ {
		p.Lifecycles = append(p.Lifecycles, genLifecycle(rng, i))
	}
	switch workload {
	case "reads":
		for i := 0; i < readsSingle; i++ {
			p.Single = append(p.Single, genLifecycle(rng, 1000+i))
			p.SinglePays = append(p.SinglePays, 1+rng.Intn(3))
		}
		for i := 0; i < readsChained; i++ {
			p.Chained = append(p.Chained, genLifecycle(rng, 2000+i))
			var mods []terms
			for v := 1; v < chainedVersions; v++ {
				mods = append(mods, genModify(rng, 2000+10*i+v))
			}
			p.ChainMods = append(p.ChainMods, mods)
		}
		versions := readsSingle + readsChained*chainedVersions
		kinds := []string{"eth_call", "eth_getBlockByNumber", "eth_getLogs", "detail"}
		for c := 0; c < 2; c++ {
			var ops []readOp
			for _, k := range kinds {
				for j := 0; j < readsOpsPerKind; j++ {
					ops = append(ops, readOp{Kind: k, Target: rng.Intn(versions)})
				}
			}
			rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
			p.Reads = append(p.Reads, ops)
		}
	case "rawtx":
		p.Accounts = fmt.Sprintf("perfbench-rawtx-%d", seed)
		for i := 0; i < rawtxRecipients; i++ {
			var a [20]byte
			rng.Read(a[:])
			p.Recipients = append(p.Recipients, "0x"+hex.EncodeToString(a[:]))
		}
		n := seconds*rawtxRateCap + 64
		for w := 0; w < 2; w++ {
			var rentals []terms
			for r := 0; r < rawtxRentals; r++ {
				rentals = append(rentals, genTerms(rng, 3000+10*w+r))
			}
			p.Rentals = append(p.Rentals, rentals)
			var txs []rawTxInput
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					txs = append(txs, rawTxInput{PayRent: true, Rental: rng.Intn(rawtxRentals)})
				} else {
					txs = append(txs, rawTxInput{Recipient: rng.Intn(rawtxRecipients), ValueWei: between(rng, 1e9, 1e12)})
				}
			}
			p.RawTxs = append(p.RawTxs, txs)
		}
	}
	return p
}

// digest is the SHA-256 of the plan's JSON form: equal seeds give
// byte-identical plans, and so equal digests.
func (p *plan) digest() string {
	b, _ := json.Marshal(p)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
