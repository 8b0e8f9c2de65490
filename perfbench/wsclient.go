package main

import (
	"bufio"
	"crypto/rand"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// headWatcher is a WS eth_subscribe("newHeads") client: a minimal
// RFC 6455 client over one TCP connection that records when each head
// arrived and counts gaps and out-of-order heads.
type headWatcher struct {
	conn net.Conn
	br   *bufio.Reader
	wmu  sync.Mutex
	done chan struct{}

	mu         sync.Mutex
	recv       map[uint64]time.Time
	last       uint64
	gaps       int64
	outOfOrder int64
	err        error
}

func dialHeads(base string) (*headWatcher, error) {
	host := strings.TrimPrefix(base, "http://")
	conn, err := net.DialTimeout("tcp", host, 10*time.Second)
	if err != nil {
		return nil, err
	}
	var nonce [16]byte
	rand.Read(nonce[:])
	key := base64.StdEncoding.EncodeToString(nonce[:])
	fmt.Fprintf(conn, "GET /ws HTTP/1.1\r\nHost: %s\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n"+
		"Sec-WebSocket-Key: %s\r\nSec-WebSocket-Version: 13\r\n\r\n", host, key)
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		conn.Close()
		return nil, err
	}
	sum := sha1.Sum([]byte(key + "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"))
	if resp.StatusCode != http.StatusSwitchingProtocols ||
		resp.Header.Get("Sec-WebSocket-Accept") != base64.StdEncoding.EncodeToString(sum[:]) {
		conn.Close()
		return nil, fmt.Errorf("ws handshake: HTTP %d", resp.StatusCode)
	}
	w := &headWatcher{conn: conn, br: br, done: make(chan struct{}), recv: map[uint64]time.Time{}}
	sub, _ := json.Marshal(map[string]interface{}{"jsonrpc": "2.0", "id": 1, "method": "eth_subscribe", "params": []string{"newHeads"}})
	if err := w.write(0x1, sub); err != nil {
		conn.Close()
		return nil, err
	}
	// The first text frame is the subscription id answer.
	msg, err := w.next()
	if err != nil {
		conn.Close()
		return nil, err
	}
	var ack struct {
		Result string    `json:"result"`
		Error  *rpcError `json:"error"`
	}
	if err := json.Unmarshal(msg, &ack); err != nil || ack.Result == "" {
		conn.Close()
		return nil, fmt.Errorf("eth_subscribe: %s", truncate(msg))
	}
	go w.loop()
	return w, nil
}

// write sends one masked frame.
func (w *headWatcher) write(op byte, payload []byte) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	hdr := []byte{0x80 | op}
	switch n := len(payload); {
	case n < 126:
		hdr = append(hdr, 0x80|byte(n))
	case n < 1<<16:
		hdr = append(hdr, 0x80|126, byte(n>>8), byte(n))
	default:
		hdr = append(hdr, 0x80|127)
		hdr = binary.BigEndian.AppendUint64(hdr, uint64(n))
	}
	var mask [4]byte
	rand.Read(mask[:])
	hdr = append(hdr, mask[:]...)
	masked := make([]byte, len(payload))
	for i, b := range payload {
		masked[i] = b ^ mask[i%4]
	}
	_, err := w.conn.Write(append(hdr, masked...))
	return err
}

// next returns the next complete text message, answering pings.
func (w *headWatcher) next() ([]byte, error) {
	var msg []byte
	for {
		var h [2]byte
		if _, err := io.ReadFull(w.br, h[:]); err != nil {
			return nil, err
		}
		fin, op := h[0]&0x80 != 0, h[0]&0x0f
		n := uint64(h[1] & 0x7f)
		switch n {
		case 126:
			var b [2]byte
			if _, err := io.ReadFull(w.br, b[:]); err != nil {
				return nil, err
			}
			n = uint64(binary.BigEndian.Uint16(b[:]))
		case 127:
			var b [8]byte
			if _, err := io.ReadFull(w.br, b[:]); err != nil {
				return nil, err
			}
			n = binary.BigEndian.Uint64(b[:])
		}
		if n > 16<<20 {
			return nil, errors.New("ws: frame too large")
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(w.br, payload); err != nil {
			return nil, err
		}
		switch op {
		case 0x8:
			return nil, io.EOF
		case 0x9:
			if err := w.write(0xA, payload); err != nil {
				return nil, err
			}
			continue
		case 0xA:
			continue
		}
		msg = append(msg, payload...)
		if fin {
			return msg, nil
		}
	}
}

func (w *headWatcher) loop() {
	defer close(w.done)
	for {
		msg, err := w.next()
		now := time.Now()
		if err != nil {
			w.mu.Lock()
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				w.err = err
			}
			w.mu.Unlock()
			return
		}
		var note struct {
			Params struct {
				Result struct {
					Number string          `json:"number"`
					Gap    json.RawMessage `json:"gap"`
				} `json:"result"`
			} `json:"params"`
		}
		if json.Unmarshal(msg, &note) != nil {
			continue
		}
		res := note.Params.Result
		w.mu.Lock()
		if res.Gap != nil {
			w.gaps++
		} else if num, err := strconv.ParseUint(strings.TrimPrefix(res.Number, "0x"), 16, 64); err == nil {
			switch {
			case w.last != 0 && num <= w.last:
				w.outOfOrder++
			case w.last != 0 && num > w.last+1:
				w.gaps++
			}
			if num > w.last {
				w.last = num
			}
			w.recv[num] = now
		}
		w.mu.Unlock()
	}
}

// waitFor blocks until head n has arrived or the timeout passes.
func (w *headWatcher) waitFor(n uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		w.mu.Lock()
		got := w.last >= n
		w.mu.Unlock()
		if got {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// close ends the connection and waits for the reader to exit.
func (w *headWatcher) close() {
	w.write(0x8, []byte{0x03, 0xe8})
	w.conn.Close()
	<-w.done
}
