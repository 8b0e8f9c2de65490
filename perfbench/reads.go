package main

import (
	"context"
	"encoding/hex"
	"fmt"
	"math/big"
	"strconv"
	"strings"

	"legalchain/internal/ethtypes"
)

// version is one contract version of the reads population with the
// answers its reads must return.
type version struct {
	addr     string
	rentWei  uint64
	house    string
	pays     int
	chainLen int
}

// populateReads builds the reads population over REST: agreements with
// one version and a few payments, and agreements walked through
// chainedVersions versions with a payment on each.
func populateReads(r rest, landlord, tenant party, p *plan) ([]version, error) {
	var out []version
	for i, in := range p.Single {
		addr, err := r.deployConfirmed(landlord, tenant, in.Deploy)
		if err != nil {
			return nil, err
		}
		for j := 0; j < p.SinglePays[i]; j++ {
			if err := r.pay(tenant, addr); err != nil {
				return nil, err
			}
		}
		out = append(out, version{addr: addr, rentWei: in.Deploy.rentWei, house: in.Deploy.House, pays: p.SinglePays[i], chainLen: 1})
	}
	for i, in := range p.Chained {
		addr, err := r.deployConfirmed(landlord, tenant, in.Deploy)
		if err != nil {
			return nil, err
		}
		if err := r.pay(tenant, addr); err != nil {
			return nil, err
		}
		line := []version{{addr: addr, rentWei: in.Deploy.rentWei, house: in.Deploy.House, pays: 1}}
		for v, mod := range p.ChainMods[i] {
			next, err := r.modify(landlord, tenant, addr, mod, v+2)
			if err != nil {
				return nil, err
			}
			if err := r.pay(tenant, next); err != nil {
				return nil, err
			}
			line = append(line, version{addr: next, rentWei: mod.rentWei, house: mod.House, pays: 1})
			addr = next
		}
		for j := range line {
			line[j].chainLen = len(line)
		}
		out = append(out, line...)
	}
	return out, nil
}

var paidRentTopic = ethtypes.Keccak256([]byte("paidRent(address,uint256,uint256)")).Hex()

// readOnce performs one planned read; a wrong answer fails the read.
func readOnce(r rest, viewer party, op readOp, seq int, v version, head uint64) error {
	if op.Kind == "detail" {
		return r.get(viewer, v.addr, func(d *detail) error {
			if len(d.Versions) != v.chainLen || !d.Verified || d.Live["rent"] != strconv.FormatUint(v.rentWei, 10) {
				return fmt.Errorf("detail of %s: %d versions verified=%v rent=%s; want %d verified rent=%d",
					v.addr, len(d.Versions), d.Verified, d.Live["rent"], v.chainLen, v.rentWei)
			}
			return nil
		})
	}
	return r.s.timed("read", &r.s.reads, func() error {
		switch op.Kind {
		case "eth_call":
			getter := "rent()"
			if seq%2 == 1 {
				getter = "house()"
			}
			var ret string
			call := map[string]string{"to": v.addr, "data": "0x" + hex.EncodeToString(selector(getter))}
			if err := r.c.call(&ret, "eth_call", call, "latest"); err != nil {
				return err
			}
			if getter == "rent()" {
				got, ok := new(big.Int).SetString(strings.TrimPrefix(ret, "0x"), 16)
				if !ok || got.Cmp(new(big.Int).SetUint64(v.rentWei)) != 0 {
					return fmt.Errorf("rent() of %s = %s, want %d", v.addr, ret, v.rentWei)
				}
			} else if got := abiString(ret); got != v.house {
				return fmt.Errorf("house() of %s = %q, want %q", v.addr, got, v.house)
			}
		case "eth_getBlockByNumber":
			var blk struct {
				Number string `json:"number"`
			}
			if err := r.c.call(&blk, "eth_getBlockByNumber", "latest", false); err != nil {
				return err
			}
			if n, err := strconv.ParseUint(strings.TrimPrefix(blk.Number, "0x"), 16, 64); err != nil || n != head {
				return fmt.Errorf("latest block %q, want %d", blk.Number, head)
			}
		case "eth_getLogs":
			var logs []struct{}
			q := map[string]interface{}{"address": v.addr, "fromBlock": "0x0", "toBlock": "latest", "topics": []string{paidRentTopic}}
			if err := r.c.call(&logs, "eth_getLogs", q); err != nil {
				return err
			}
			if len(logs) != v.pays {
				return fmt.Errorf("eth_getLogs(%s): %d payments, want %d", v.addr, len(logs), v.pays)
			}
		default:
			return fmt.Errorf("unknown read %q", op.Kind)
		}
		return nil
	})
}

// runReads cycles one client through its planned reads until ctx ends.
func runReads(ctx context.Context, r rest, viewer party, ops []readOp, pop []version, head uint64) {
	for i := 0; ctx.Err() == nil; i++ {
		op := ops[i%len(ops)]
		readOnce(r, viewer, op, i, pop[op.Target], head)
	}
}

// abiString decodes an ABI-encoded string return value.
func abiString(ret string) string {
	b, err := hex.DecodeString(strings.TrimPrefix(ret, "0x"))
	if err != nil || len(b) < 64 {
		return ""
	}
	n := new(big.Int).SetBytes(b[32:64]).Uint64()
	if uint64(len(b)) < 64+n {
		return ""
	}
	return string(b[64 : 64+n])
}
