package app

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"legalchain/internal/core"
	"legalchain/internal/ethtypes"
	"legalchain/internal/obs"
	"legalchain/internal/uint256"
	"legalchain/internal/upgrade"
	"legalchain/internal/web3"
)

// Versioned REST API for the contract manager, coexisting with the HTML
// UI. All endpoints require the session
// cookie and speak a uniform error envelope:
//
//	{"error":{"code":"bad_request","message":"..."}}
//
// Routes:
//
//	GET  /api/v1/me                        session user + balance
//	GET  /api/v1/contracts                 dashboard rows for the user
//	POST /api/v1/contracts                 deploy a rental agreement
//	GET  /api/v1/contracts/{addr}          row + live state + version chain + payments
//	GET  /api/v1/contracts/{addr}/audit    full chain audit (code/ABI/layout/behaviour diffs)
//	POST /api/v1/contracts/{addr}/actions  lifecycle action (confirm, pay, ...)

// Machine-readable error codes of the v1 envelope.
const (
	v1Unauthorized    = "unauthorized"
	v1NotFound        = "not_found"
	v1BadRequest      = "bad_request"
	v1NotAllowed      = "method_not_allowed"
	v1Internal        = "internal"
	v1UpgradeRejected = "upgrade_rejected"
)

// writeV1Error emits the uniform v1 error envelope. The request ID the
// obs middleware assigned rides along, so a failing API response can be
// joined with the server log line and the trace it produced:
//
//	{"error":{"code":"bad_request","message":"...","requestId":"..."}}
func writeV1Error(w http.ResponseWriter, r *http.Request, status int, code, message string) {
	writeV1ErrorData(w, r, status, code, message, nil)
}

// writeV1ErrorData is writeV1Error with a structured data payload — the
// upgrade-rejection envelope carries the full verification report:
//
//	{"error":{"code":"upgrade_rejected","message":"...","data":{"report":{...}}}}
func writeV1ErrorData(w http.ResponseWriter, r *http.Request, status int, code, message string, data interface{}) {
	e := map[string]interface{}{"code": code, "message": message}
	if r != nil {
		if rid := obs.RequestIDFrom(r.Context()); rid != "" {
			e["requestId"] = rid
		}
	}
	if data != nil {
		e["data"] = data
	}
	writeJSON(w, status, map[string]interface{}{"error": e})
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (a *App) apiV1Routes(handle func(pattern string, h http.HandlerFunc)) {
	handle("/api/v1/me", a.withUser(a.v1Me))
	handle("/api/v1/contracts", a.withUser(a.v1Contracts))
	handle("/api/v1/contracts/", a.withUser(a.v1Contract))
	handle("/api/v1/heads", a.withUser(a.v1Heads))
	handle("/api/v1/alerts", a.withUser(a.v1Alerts))
}

// v1Head describes the chain head a response was served from, so API
// consumers can correlate reads across endpoints. Populated when the
// backend can pin an immutable head view (in-process chains).
func (a *App) v1Head() map[string]interface{} {
	hv, ok := a.Manager.Client.Backend().(web3.HeadViewer)
	if !ok {
		return nil
	}
	v := hv.HeadView()
	return map[string]interface{}{
		"number":    v.BlockNumber(),
		"hash":      v.Head().Hash().Hex(),
		"stateRoot": v.StateRoot().Hex(),
	}
}

func (a *App) v1Me(w http.ResponseWriter, r *http.Request, u *User) {
	if r.Method != http.MethodGet {
		writeV1Error(w, r, http.StatusMethodNotAllowed, v1NotAllowed, "GET only")
		return
	}
	out := map[string]interface{}{
		"name":    u.Name,
		"email":   u.Email,
		"address": u.Address,
	}
	// Prefer a pinned head view so the balance and the reported head
	// describe the same chain snapshot; fall back to the plain backend
	// read for HTTP backends.
	var bal uint256.Int
	if hv, ok := a.Manager.Client.Backend().(web3.HeadViewer); ok {
		v := hv.HeadView()
		bal = v.GetBalance(u.Addr())
		out["head"] = map[string]interface{}{
			"number":    v.BlockNumber(),
			"hash":      v.Head().Hash().Hex(),
			"stateRoot": v.StateRoot().Hex(),
		}
	} else {
		bal, _ = a.Manager.Client.Backend().GetBalance(u.Addr())
	}
	out["balanceWei"] = bal.String()
	out["balanceEth"] = ethtypes.FormatEther(bal)
	writeJSON(w, http.StatusOK, out)
}

// v1Terms is the JSON shape of rental terms for deploys and modifies.
// Ether amounts are decimal strings ("1.5"), matching the HTML forms.
type v1Terms struct {
	RentEth        string `json:"rentEth"`
	DepositEth     string `json:"depositEth"`
	Months         uint64 `json:"months"`
	House          string `json:"house"`
	MaintenanceEth string `json:"maintenanceEth"`
	DiscountEth    string `json:"discountEth"`
	FineEth        string `json:"fineEth"`
	Document       string `json:"document"`
}

func (a *App) v1Contracts(w http.ResponseWriter, r *http.Request, u *User) {
	switch r.Method {
	case http.MethodGet:
		limit, cursor, perr := pageParams(r)
		if perr != nil {
			writeV1Error(w, r, http.StatusBadRequest, v1BadRequest, perr.Error())
			return
		}
		since, perr := sinceParam(r)
		if perr != nil {
			writeV1Error(w, r, http.StatusBadRequest, v1BadRequest, perr.Error())
			return
		}
		rows, err := a.Dashboard(u)
		if err != nil {
			writeV1Error(w, r, http.StatusInternalServerError, v1Internal, err.Error())
			return
		}
		rows, err = a.filterRowsSince(rows, since)
		if err != nil {
			writeV1Error(w, r, http.StatusInternalServerError, v1Internal, err.Error())
			return
		}
		page, next := pageContracts(rows, limit, cursor)
		out := map[string]interface{}{"contracts": page}
		if next != "" {
			out["nextCursor"] = next
		}
		writeJSON(w, http.StatusOK, out)

	case http.MethodPost:
		var body struct {
			Artifact string `json:"artifact"`
			v1Terms
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			writeV1Error(w, r, http.StatusBadRequest, v1BadRequest, "bad JSON body: "+err.Error())
			return
		}
		terms := core.RentalTerms{
			Rent:    weiOf(body.RentEth),
			Deposit: weiOf(body.DepositEth),
			Months:  body.Months,
			House:   body.House,
		}
		if body.Document != "" {
			terms.LegalDoc = []byte(body.Document)
		}
		var dep *core.Deployment
		var err error
		if body.Artifact != "" && !strings.EqualFold(body.Artifact, "BaseRental") {
			art, aerr := a.GetArtifact(body.Artifact)
			if aerr != nil {
				writeV1Error(w, r, http.StatusBadRequest, v1BadRequest, aerr.Error())
				return
			}
			dep, err = a.Manager.DeployVersion(u.Addr(), art, terms.LegalDoc,
				terms.Rent, terms.Deposit, terms.Months, terms.House)
		} else {
			dep, err = a.Rental.DeployRental(u.Addr(), terms)
		}
		if err != nil {
			writeV1Error(w, r, http.StatusBadRequest, v1BadRequest, err.Error())
			return
		}
		writeJSON(w, http.StatusCreated, map[string]interface{}{
			"address": dep.Row.Address,
			"gasUsed": dep.GasUsed,
			"row":     dep.Row,
		})

	default:
		writeV1Error(w, r, http.StatusMethodNotAllowed, v1NotAllowed, "GET or POST only")
	}
}

// v1Contract routes /api/v1/contracts/{addr}[/actions].
func (a *App) v1Contract(w http.ResponseWriter, r *http.Request, u *User) {
	rest := strings.TrimPrefix(r.URL.Path, "/api/v1/contracts/")
	parts := strings.SplitN(rest, "/", 2)
	addrHex := parts[0]
	if !strings.HasPrefix(addrHex, "0x") || len(addrHex) != 42 {
		writeV1Error(w, r, http.StatusBadRequest, v1BadRequest, "bad contract address")
		return
	}
	addr := ethtypes.HexToAddress(addrHex)
	sub := ""
	if len(parts) == 2 {
		sub = parts[1]
	}
	switch sub {
	case "":
		if r.Method != http.MethodGet {
			writeV1Error(w, r, http.StatusMethodNotAllowed, v1NotAllowed, "GET only")
			return
		}
		a.v1ContractDetail(w, r, u, addr)
	case "actions":
		if r.Method != http.MethodPost {
			writeV1Error(w, r, http.StatusMethodNotAllowed, v1NotAllowed, "POST only")
			return
		}
		a.v1ContractAction(w, r, u, addr)
	case "events":
		a.v1ContractEvents(w, r, u, addr)
	case "payments":
		if r.Method != http.MethodGet {
			writeV1Error(w, r, http.StatusMethodNotAllowed, v1NotAllowed, "GET only")
			return
		}
		a.v1ContractPayments(w, r, u, addr)
	case "audit":
		if r.Method != http.MethodGet {
			writeV1Error(w, r, http.StatusMethodNotAllowed, v1NotAllowed, "GET only")
			return
		}
		a.v1ContractAudit(w, r, u, addr)
	case "timeline":
		if r.Method != http.MethodGet {
			writeV1Error(w, r, http.StatusMethodNotAllowed, v1NotAllowed, "GET only")
			return
		}
		a.v1ContractTimeline(w, r, u, addr)
	default:
		writeV1Error(w, r, http.StatusNotFound, v1NotFound, "unknown endpoint "+sub)
	}
}

// v1ContractDetail is the one-stop read: registry row, live chain
// state, the walked version chain with its verification verdict, and
// the cross-version payment history.
func (a *App) v1ContractDetail(w http.ResponseWriter, r *http.Request, u *User, addr ethtypes.Address) {
	row, err := a.Manager.GetRow(addr)
	if err != nil {
		writeV1Error(w, r, http.StatusNotFound, v1NotFound, err.Error())
		return
	}
	out := map[string]interface{}{"row": row}
	if head := a.v1Head(); head != nil {
		out["head"] = head
	}

	viewer := u.Addr()
	if bound, err := a.Manager.BindVersion(addr); err == nil {
		live := map[string]string{}
		for _, getter := range []string{"rent", "deposit", "state", "monthCounter"} {
			if v, err := bound.CallUint(viewer, getter); err == nil {
				live[getter] = v.String()
			}
		}
		if house, err := bound.CallString(viewer, "house"); err == nil {
			live["house"] = house
		}
		out["live"] = live
	}

	if line, err := a.Manager.WalkChain(addr); err == nil {
		type nodeJSON struct {
			Address string `json:"address"`
			Version int    `json:"version"`
			State   string `json:"state"`
			Prev    string `json:"prev,omitempty"`
			Next    string `json:"next,omitempty"`
		}
		nodes := make([]nodeJSON, len(line))
		for i, n := range line {
			nodes[i] = nodeJSON{Address: n.Address.Hex(), Version: n.Version, State: n.State}
			if !n.Prev.IsZero() {
				nodes[i].Prev = n.Prev.Hex()
			}
			if !n.Next.IsZero() {
				nodes[i].Next = n.Next.Hex()
			}
		}
		out["versions"] = nodes
		out["verified"] = core.VerifyChain(line) == nil
	}

	if rej, err := a.Manager.Rejections(viewer, addr); err == nil && len(rej) > 0 {
		out["rejections"] = rej
	}

	if hist, err := a.Rental.RentHistory(viewer, addr); err == nil {
		type payJSON struct {
			Version int    `json:"version"`
			Month   uint64 `json:"month"`
			Amount  string `json:"amountWei"`
			TxHash  string `json:"txHash,omitempty"`
			// Trace is a ready-to-send JSON-RPC invocation that replays
			// this payment with the callTracer attached.
			Trace interface{} `json:"trace,omitempty"`
		}
		pays := make([]payJSON, len(hist))
		for i, p := range hist {
			pays[i] = payJSON{Version: p.Version, Month: p.Month, Amount: p.Amount.String()}
			if !p.TxHash.IsZero() {
				pays[i].TxHash = p.TxHash.Hex()
				pays[i].Trace = map[string]interface{}{
					"method": "debug_traceTransaction",
					"params": []interface{}{p.TxHash.Hex(), map[string]string{"tracer": "callTracer"}},
				}
			}
		}
		out["payments"] = pays
	}
	writeJSON(w, http.StatusOK, out)
}

// v1ContractAudit renders the full chain audit of the version line
// containing addr: per-version code and artifacts, pairwise bytecode /
// ABI / layout / behaviour diffs, and any recorded upgrade rejections.
func (a *App) v1ContractAudit(w http.ResponseWriter, r *http.Request, u *User, addr ethtypes.Address) {
	if _, err := a.Manager.GetRow(addr); err != nil {
		writeV1Error(w, r, http.StatusNotFound, v1NotFound, err.Error())
		return
	}
	report, err := a.Manager.AuditChain(u.Addr(), addr)
	if err != nil {
		writeV1Error(w, r, http.StatusInternalServerError, v1Internal, err.Error())
		return
	}
	out := map[string]interface{}{"audit": report}
	if head := a.v1Head(); head != nil {
		out["head"] = head
	}
	writeJSON(w, http.StatusOK, out)
}

// v1ContractAction executes one lifecycle step. The action names match
// the HTML form routes; "modify" deploys a new linked version and
// returns its row.
func (a *App) v1ContractAction(w http.ResponseWriter, r *http.Request, u *User, addr ethtypes.Address) {
	if _, err := a.Manager.GetRow(addr); err != nil {
		writeV1Error(w, r, http.StatusNotFound, v1NotFound, err.Error())
		return
	}
	var body struct {
		Action string   `json:"action"`
		Terms  *v1Terms `json:"terms"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeV1Error(w, r, http.StatusBadRequest, v1BadRequest, "bad JSON body: "+err.Error())
		return
	}
	result := map[string]interface{}{"action": body.Action, "status": "ok"}
	var err error
	switch body.Action {
	case "confirm":
		err = a.Rental.Confirm(u.Addr(), addr)
	case "pay":
		var rcpt *ethtypes.Receipt
		rcpt, err = a.Rental.PayRentCtx(r.Context(), u.Addr(), addr)
		if err == nil {
			result["txHash"] = rcpt.TxHash.Hex()
		}
	case "maintenance":
		_, err = a.Rental.PayMaintenance(u.Addr(), addr)
	case "terminate":
		err = a.Rental.Terminate(u.Addr(), addr)
	case "confirm-modification":
		err = a.Rental.ConfirmModification(u.Addr(), addr)
	case "reject-modification":
		err = a.Rental.RejectModification(u.Addr(), addr)
	case "modify":
		if body.Terms == nil {
			writeV1Error(w, r, http.StatusBadRequest, v1BadRequest, "modify requires terms")
			return
		}
		terms := core.ModifiedTerms{
			Rent:           weiOf(body.Terms.RentEth),
			Deposit:        weiOf(body.Terms.DepositEth),
			Months:         body.Terms.Months,
			House:          body.Terms.House,
			MaintenanceFee: weiOf(body.Terms.MaintenanceEth),
			Discount:       weiOf(body.Terms.DiscountEth),
			Fine:           weiOf(body.Terms.FineEth),
		}
		if body.Terms.Document != "" {
			terms.LegalDoc = []byte(body.Terms.Document)
		}
		var dep *core.Deployment
		dep, err = a.Rental.Modify(u.Addr(), addr, terms)
		if err == nil {
			result["newVersion"] = dep.Row
		}
	case "":
		writeV1Error(w, r, http.StatusBadRequest, v1BadRequest, "missing action")
		return
	default:
		writeV1Error(w, r, http.StatusBadRequest, v1BadRequest, fmt.Sprintf("unknown action %q", body.Action))
		return
	}
	if err != nil {
		var rej *upgrade.RejectionError
		if errors.As(err, &rej) {
			writeV1ErrorData(w, r, http.StatusUnprocessableEntity, v1UpgradeRejected,
				rej.Error(), map[string]interface{}{"report": rej.Report})
			return
		}
		writeV1Error(w, r, http.StatusBadRequest, v1BadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, result)
}
