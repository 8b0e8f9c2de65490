package app

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"legalchain/internal/obs"
	"legalchain/internal/xtrace"
)

// apiRig registers a landlord+tenant, deploys and modifies a rental
// through the service layer, and returns an authenticated browser.
func apiRig(t *testing.T) (*browser, *App, string) {
	t.Helper()
	a := rig(t)
	// Mirror production wiring: rentald serves the app behind
	// obs.LogRequests, which assigns request IDs and opens root spans.
	srv := httptest.NewServer(obs.LogRequests(nil, a.Handler()))
	t.Cleanup(srv.Close)
	landlord := newBrowser(t, srv)
	landlord.register("api_landlord", "pw")
	resp, body := landlord.post("/deploy", url.Values{
		"artifact": {"BaseRental"}, "rent": {"1"}, "deposit": {"2"},
		"months": {"12"}, "house": {"api-house"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy: %d %s", resp.StatusCode, body)
	}
	_, dash := landlord.get("/dashboard")
	addr := extractAddr(t, dash)
	return landlord, a, addr
}

func getJSON(t *testing.T, b *browser, path string, out interface{}) int {
	t.Helper()
	resp, err := b.c.Get(b.url + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("bad JSON from %s: %v (%s)", path, err, data)
		}
	}
	return resp.StatusCode
}

// postJSON sends a JSON body through the browser's cookie-carrying
// client and decodes the JSON reply.
func postJSON(t *testing.T, b *browser, path string, payload, out interface{}) int {
	t.Helper()
	body, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := b.c.Post(b.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("bad JSON from %s: %v (%s)", path, err, data)
		}
	}
	return resp.StatusCode
}

// v1Envelope is the uniform error shape of /api/v1/.
type v1Envelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func TestV1MeAndList(t *testing.T) {
	b, _, addr := apiRig(t)
	var me map[string]interface{}
	if code := getJSON(t, b, "/api/v1/me", &me); code != 200 {
		t.Fatalf("me: code %d", code)
	}
	for _, field := range []string{"address", "balanceWei", "balanceEth"} {
		if v, _ := me[field].(string); v == "" {
			t.Fatalf("me.%s missing: %v", field, me)
		}
	}
	if me["name"] != "api_landlord" {
		t.Fatalf("me = %v", me)
	}
	// In-process backends pin a head view: the response names the chain
	// snapshot the balance was read from.
	head, ok := me["head"].(map[string]interface{})
	if !ok {
		t.Fatalf("me has no head object: %v", me)
	}
	if head["hash"] == "" || head["stateRoot"] == "" {
		t.Fatalf("head = %v", head)
	}
	if _, ok := head["number"].(float64); !ok {
		t.Fatalf("head.number = %v", head["number"])
	}
	var list struct {
		Contracts []map[string]interface{} `json:"contracts"`
	}
	if code := getJSON(t, b, "/api/v1/contracts", &list); code != 200 {
		t.Fatalf("list: code %d", code)
	}
	if len(list.Contracts) != 1 || list.Contracts[0]["Address"] != addr {
		t.Fatalf("contracts = %v", list.Contracts)
	}
}

func TestV1DeployAndDetail(t *testing.T) {
	b, _, _ := apiRig(t)
	var dep struct {
		Address string                 `json:"address"`
		GasUsed float64                `json:"gasUsed"`
		Row     map[string]interface{} `json:"row"`
	}
	code := postJSON(t, b, "/api/v1/contracts", map[string]interface{}{
		"artifact": "BaseRental", "rentEth": "2", "depositEth": "4",
		"months": 6, "house": "v1-house", "document": "v1 legal text",
	}, &dep)
	if code != http.StatusCreated {
		t.Fatalf("deploy: code %d (%+v)", code, dep)
	}
	if len(dep.Address) != 42 || dep.GasUsed == 0 {
		t.Fatalf("deploy = %+v", dep)
	}

	var detail struct {
		Row      map[string]interface{} `json:"row"`
		Head     map[string]interface{} `json:"head"`
		Live     map[string]string      `json:"live"`
		Versions []map[string]interface{}
		Verified bool `json:"verified"`
	}
	if code := getJSON(t, b, "/api/v1/contracts/"+dep.Address, &detail); code != 200 {
		t.Fatalf("detail: code %d", code)
	}
	if detail.Head["hash"] == "" || detail.Head["stateRoot"] == "" {
		t.Fatalf("detail head = %v", detail.Head)
	}
	if detail.Live["house"] != "v1-house" {
		t.Fatalf("live = %v", detail.Live)
	}
	if detail.Live["rent"] != "2000000000000000000" {
		t.Fatalf("rent = %v", detail.Live["rent"])
	}
	if !detail.Verified {
		t.Fatal("fresh single-version chain should verify")
	}
}

func TestV1Actions(t *testing.T) {
	landlord, _, addr := apiRig(t)
	jar, _ := cookiejar.New(nil)
	tenant := &browser{t: t, c: &http.Client{Jar: jar}, url: landlord.url}
	tenant.register("v1_tenant", "pw")

	var ok map[string]interface{}
	if code := postJSON(t, tenant, "/api/v1/contracts/"+addr+"/actions",
		map[string]interface{}{"action": "confirm"}, &ok); code != 200 {
		t.Fatalf("confirm: code %d (%v)", code, ok)
	}
	if code := postJSON(t, tenant, "/api/v1/contracts/"+addr+"/actions",
		map[string]interface{}{"action": "pay"}, &ok); code != 200 {
		t.Fatalf("pay: code %d (%v)", code, ok)
	}

	// Landlord proposes a modification; the reply carries the new row.
	var mod struct {
		NewVersion map[string]interface{} `json:"newVersion"`
	}
	code := postJSON(t, landlord, "/api/v1/contracts/"+addr+"/actions", map[string]interface{}{
		"action": "modify",
		"terms": map[string]interface{}{
			"rentEth": "1.5", "depositEth": "2", "months": 12, "house": "api-house",
			"maintenanceEth": "0.1", "discountEth": "0", "fineEth": "1",
		},
	}, &mod)
	if code != 200 || mod.NewVersion["address"] == nil {
		t.Fatalf("modify: code %d (%+v)", code, mod)
	}

	var detail struct {
		Versions []map[string]interface{} `json:"versions"`
		Verified bool                     `json:"verified"`
	}
	if code := getJSON(t, landlord, "/api/v1/contracts/"+addr, &detail); code != 200 {
		t.Fatalf("detail: code %d", code)
	}
	if len(detail.Versions) != 2 || !detail.Verified {
		t.Fatalf("versions = %+v verified=%v", detail.Versions, detail.Verified)
	}

	// Payments made on v1 survive into the aggregated history.
	var paid struct {
		Payments []map[string]interface{} `json:"payments"`
	}
	if code := getJSON(t, tenant, "/api/v1/contracts/"+addr, &paid); code != 200 {
		t.Fatal("tenant detail")
	}
	if len(paid.Payments) != 1 {
		t.Fatalf("payments = %+v", paid.Payments)
	}
}

func TestV1ErrorEnvelope(t *testing.T) {
	b, _, addr := apiRig(t)

	// Unauthenticated requests get the envelope with code "unauthorized".
	srv := httptest.NewServer(rig(t).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/v1/me")
	if err != nil {
		t.Fatal(err)
	}
	var env v1Envelope
	json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != 401 || env.Error.Code != "unauthorized" {
		t.Fatalf("unauthenticated: %d %+v", resp.StatusCode, env)
	}

	cases := []struct {
		name   string
		method string
		path   string
		body   interface{}
		status int
		code   string
	}{
		{"bad address", "GET", "/api/v1/contracts/short", nil, 400, "bad_request"},
		{"unknown contract", "GET", "/api/v1/contracts/0x0000000000000000000000000000000000000abc", nil, 404, "not_found"},
		{"unknown subresource", "GET", "/api/v1/contracts/" + addr + "/nope", nil, 404, "not_found"},
		{"method not allowed", "DELETE", "/api/v1/me", nil, 405, "method_not_allowed"},
		{"unknown action", "POST", "/api/v1/contracts/" + addr + "/actions",
			map[string]interface{}{"action": "explode"}, 400, "bad_request"},
		{"missing action", "POST", "/api/v1/contracts/" + addr + "/actions",
			map[string]interface{}{}, 400, "bad_request"},
		{"modify without terms", "POST", "/api/v1/contracts/" + addr + "/actions",
			map[string]interface{}{"action": "modify"}, 400, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader
			if tc.body != nil {
				raw, _ := json.Marshal(tc.body)
				body = bytes.NewReader(raw)
			}
			req, err := http.NewRequest(tc.method, b.url+tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			if tc.body != nil {
				req.Header.Set("Content-Type", "application/json")
			}
			resp, err := b.c.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var env v1Envelope
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err := json.Unmarshal(data, &env); err != nil {
				t.Fatalf("non-envelope body: %s", data)
			}
			if resp.StatusCode != tc.status || env.Error.Code != tc.code {
				t.Fatalf("got %d %q, want %d %q (%s)",
					resp.StatusCode, env.Error.Code, tc.status, tc.code, data)
			}
			if env.Error.Message == "" {
				t.Fatal("empty error message")
			}
		})
	}
}

// TestV1PayTraceHierarchy is the cross-tier acceptance test: a traced
// POST /api/v1/contracts/{addr}/actions pay produces one trace, keyed
// by the caller's X-Request-Id, whose spans walk every tier of the
// stack — http (obs middleware) → rpc (web3 client) → chain
// (SendTransaction) → evm (call frames) → blockdb (segment append).
func TestV1PayTraceHierarchy(t *testing.T) {
	xtrace.SetEnabled(true)
	xtrace.SetSampleEvery(1)
	xtrace.Reset()
	t.Cleanup(func() { xtrace.SetEnabled(false); xtrace.Reset() })

	landlord, _, addr := apiRig(t)
	jar, _ := cookiejar.New(nil)
	tenant := &browser{t: t, c: &http.Client{Jar: jar}, url: landlord.url}
	tenant.register("trace_tenant", "pw")
	var ok map[string]interface{}
	if code := postJSON(t, tenant, "/api/v1/contracts/"+addr+"/actions",
		map[string]interface{}{"action": "confirm"}, &ok); code != 200 {
		t.Fatalf("confirm: code %d (%v)", code, ok)
	}

	const rid = "trace-hierarchy-test"
	body, _ := json.Marshal(map[string]interface{}{"action": "pay"})
	req, err := http.NewRequest(http.MethodPost,
		tenant.url+"/api/v1/contracts/"+addr+"/actions", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", rid)
	resp, err := tenant.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var payOut map[string]interface{}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pay: code %d (%s)", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &payOut); err != nil {
		t.Fatal(err)
	}
	// The action result carries the transaction hash for tracing.
	txh, _ := payOut["txHash"].(string)
	if len(txh) != 66 {
		t.Fatalf("pay result txHash = %q", payOut["txHash"])
	}

	// The obs middleware reused the request ID as the trace ID, so the
	// caller can look its own trace up.
	td := xtrace.Lookup(rid)
	if td == nil {
		t.Fatalf("no trace recorded under %q", rid)
	}
	tiers := map[string]bool{}
	for _, sp := range td.Spans {
		tiers[sp.Tier] = true
	}
	for _, want := range []string{"http", "rpc", "chain", "evm", "blockdb"} {
		if !tiers[want] {
			t.Fatalf("trace %s missing tier %q (have %v)", rid, want, tiers)
		}
	}
	if got := td.Root(); !strings.HasPrefix(got, "http:POST ") {
		t.Fatalf("root = %q", got)
	}

	// The payment surfaces in the detail JSON with its hash and a
	// ready-made debug_traceTransaction invocation.
	var detail struct {
		Payments []struct {
			TxHash string                 `json:"txHash"`
			Trace  map[string]interface{} `json:"trace"`
		} `json:"payments"`
	}
	if code := getJSON(t, tenant, "/api/v1/contracts/"+addr, &detail); code != 200 {
		t.Fatal("detail")
	}
	if len(detail.Payments) != 1 || detail.Payments[0].TxHash != txh {
		t.Fatalf("payments = %+v (want txHash %s)", detail.Payments, txh)
	}
	if m, _ := detail.Payments[0].Trace["method"].(string); m != "debug_traceTransaction" {
		t.Fatalf("trace hint = %+v", detail.Payments[0].Trace)
	}
}

// TestV1ErrorRequestID: error envelopes echo the request ID assigned
// (or propagated) by the obs middleware.
func TestV1ErrorRequestID(t *testing.T) {
	b, _, _ := apiRig(t)
	req, err := http.NewRequest(http.MethodGet, b.url+"/api/v1/contracts/short", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "envelope-rid-1")
	resp, err := b.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct {
		Error struct {
			Code      string `json:"code"`
			RequestID string `json:"requestId"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 400 || env.Error.Code != "bad_request" {
		t.Fatalf("status %d env %+v", resp.StatusCode, env)
	}
	if env.Error.RequestID != "envelope-rid-1" {
		t.Fatalf("requestId = %q", env.Error.RequestID)
	}
}
