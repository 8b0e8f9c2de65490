package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// client is one keep-alive HTTP connection to the node, carrying both
// REST (/api/v1) and JSON-RPC (/rpc) requests.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
	id   int
}

func newClient(base string, tr *tracer) *client {
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}
	return &client{
		base: base,
		tr:   tr,
		hc: &http.Client{
			Transport: tp,
			Timeout:   60 * time.Second,
			CheckRedirect: func(*http.Request, []*http.Request) error {
				return http.ErrUseLastResponse
			},
		},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// send performs one request. kind labels the server-side span; the
// round trip is a client span of the same operation.
func (c *client) send(method, path, kind, cookie, ctype string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if cookie != "" {
		req.Header.Set("Cookie", "legalchain_session="+cookie)
	}
	var sp *span
	if c.tr != nil {
		sp = c.tr.begin("client."+kind, c.tr.nextOp.Add(1), 0)
		if sp != nil {
			req.Header.Set(hdrOp, strconv.FormatInt(sp.Op, 10))
			req.Header.Set(hdrSpan, strconv.FormatInt(sp.ID, 10))
		}
	}
	req.Header.Set(hdrKind, kind)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if c.tr != nil {
		c.tr.end(sp)
	}
	return resp.StatusCode, out, err
}

// rest sends a JSON body (nil for GET) and decodes a 2xx JSON answer.
func (c *client) rest(method, path, kind, cookie string, in, out interface{}) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	status, raw, err := c.send(method, path, kind, cookie, "application/json", body)
	if err != nil {
		return err
	}
	if status < 200 || status > 299 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, status, truncate(raw))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// form posts a URL-encoded form (the register/login pages).
func (c *client) form(path string, v url.Values) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, strings.NewReader(v.Encode()))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp, nil
}

// user registers name and logs in, returning the session cookie and
// the chain address the app assigned.
func (c *client) user(name string) (cookie, addr string, err error) {
	pw := url.Values{"name": {name}, "email": {name + "@bench.invalid"}, "password": {"pw-" + name}}
	resp, err := c.form("/register", pw)
	if err != nil {
		return "", "", err
	}
	if resp.StatusCode != http.StatusSeeOther {
		return "", "", fmt.Errorf("register %s: HTTP %d", name, resp.StatusCode)
	}
	resp, err = c.form("/login", url.Values{"name": {name}, "password": {"pw-" + name}})
	if err != nil {
		return "", "", err
	}
	for _, ck := range resp.Cookies() {
		if ck.Name == "legalchain_session" {
			cookie = ck.Value
		}
	}
	if cookie == "" {
		return "", "", fmt.Errorf("login %s: no session cookie (HTTP %d)", name, resp.StatusCode)
	}
	var me struct {
		Address string `json:"address"`
	}
	if err := c.rest(http.MethodGet, "/api/v1/me", "read", cookie, nil, &me); err != nil {
		return "", "", err
	}
	return cookie, me.Address, nil
}

type rpcError struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

// call sends one JSON-RPC request and decodes its result into out.
func (c *client) call(out interface{}, method string, params ...interface{}) error {
	if params == nil {
		params = []interface{}{}
	}
	body, err := json.Marshal(map[string]interface{}{"jsonrpc": "2.0", "id": 1, "method": method, "params": params})
	if err != nil {
		return err
	}
	status, raw, err := c.send(http.MethodPost, "/rpc", method, "", "application/json", body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", method, status)
	}
	var resp struct {
		Result json.RawMessage `json:"result"`
		Error  *rpcError       `json:"error"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return fmt.Errorf("%s: %v", method, err)
	}
	if resp.Error != nil {
		return fmt.Errorf("%s: %d %s", method, resp.Error.Code, resp.Error.Message)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(resp.Result, out)
}

func truncate(b []byte) string {
	if len(b) > 300 {
		b = b[:300]
	}
	return strings.TrimSpace(string(b))
}
