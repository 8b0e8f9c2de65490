package state

import "legalchain/internal/ethtypes"

// Overlay returns an O(1) copy-on-read view over s for read-only
// execution (eth_call, debug_traceCall, forks of a head view): account
// objects are cloned lazily on first touch (maps shared copy-on-write
// exactly as in Copy), so the cost of an overlay is proportional to the
// accounts the execution actually visits, not to the size of the world
// state.
//
// The overlay supports the full execution surface (getters, mutators,
// journal/revert, Finalise) but not root computation, snapshot encoding
// or whole-state walks — it cannot enumerate untouched base accounts.
// After its Finalise sweeps an account, a later read would
// re-materialise the base object. The base must not be mutated while
// the overlay is live; concurrent overlays over one quiescent base are
// safe (materialisation only performs atomic shared-flag stores on base
// objects).
func (s *StateDB) Overlay() *StateDB {
	return &StateDB{
		objects: make(map[ethtypes.Address]*stateObject),
		base:    s,
		dirties: make(map[ethtypes.Address]*dirtyEntry),
	}
}
