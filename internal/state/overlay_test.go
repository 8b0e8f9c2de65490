package state

import (
	"testing"

	"legalchain/internal/uint256"
)

// overlayBase builds a small world with funded accounts, a contract and
// a populated storage slot — the substrate for the overlay tests.
func overlayBase() *StateDB {
	s := New()
	s.AddBalance(addr(1), uint256.NewUint64(1000))
	s.SetNonce(addr(1), 5)
	s.AddBalance(addr(2), uint256.NewUint64(2000))
	s.SetCode(addr(3), []byte{0x60, 0x00})
	s.SetState(addr(3), slot(1), uint256.NewUint64(42))
	s.Finalise()
	return s
}

func TestOverlayCopyOnRead(t *testing.T) {
	s := overlayBase()
	ov := s.Overlay()
	// Reads come through from the base.
	if ov.GetBalance(addr(1)).Uint64() != 1000 {
		t.Fatal("overlay read missed base balance")
	}
	if ov.GetState(addr(3), slot(1)).Uint64() != 42 {
		t.Fatal("overlay read missed base storage")
	}
	// Writes stay in the overlay.
	ov.AddBalance(addr(1), uint256.NewUint64(500))
	ov.SetState(addr(3), slot(1), uint256.NewUint64(7))
	ov.SetNonce(addr(1), 6)
	ov.SetCode(addr(4), []byte{0x01})
	if s.GetBalance(addr(1)).Uint64() != 1000 {
		t.Fatal("overlay write leaked into base balance")
	}
	if s.GetState(addr(3), slot(1)).Uint64() != 42 {
		t.Fatal("overlay write leaked into base storage")
	}
	if s.GetNonce(addr(1)) != 5 {
		t.Fatal("overlay write leaked into base nonce")
	}
	if s.Exist(addr(4)) {
		t.Fatal("overlay creation leaked into base")
	}
	// Untouched accounts are never materialised in the overlay.
	if _, ok := ov.objects[addr(2)]; ok {
		t.Fatal("overlay materialised an untouched account")
	}
}

func TestOverlayJournalRevert(t *testing.T) {
	s := overlayBase()
	ov := s.Overlay()
	snap := ov.Snapshot()
	ov.AddBalance(addr(1), uint256.NewUint64(500))
	ov.SetState(addr(3), slot(1), uint256.NewUint64(7))
	ov.RevertToSnapshot(snap)
	if ov.GetBalance(addr(1)).Uint64() != 1000 {
		t.Fatal("overlay revert lost base balance")
	}
	if ov.GetState(addr(3), slot(1)).Uint64() != 42 {
		t.Fatal("overlay revert lost base storage value")
	}
}

func TestOverlayRootPanics(t *testing.T) {
	s := overlayBase()
	ov := s.Overlay()
	defer func() {
		if recover() == nil {
			t.Fatal("Root on an overlay did not panic")
		}
	}()
	ov.Root()
}
