package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// Routes the client times separately. Each name is a per-layer metric
// prefix (api.<route>.*).
const (
	routePost     = "post_workloads"
	routeAlerts   = "get_alerts"
	routeMachines = "get_machines"
)

// apiLog accumulates client-side request timings by route.
type apiLog struct {
	lat      map[string][]float64 // route -> latency, ms
	bytes    int64                // response bytes over all requests
	requests int
}

func newAPILog() *apiLog { return &apiLog{lat: map[string][]float64{}} }

// record adds one request of n response bytes. A failed request is
// recorded too, and reported to the gate by the caller.
func (a *apiLog) record(route string, d time.Duration, n int) {
	a.lat[route] = append(a.lat[route], ms(d))
	a.bytes += int64(n)
	a.requests++
}

// all returns every latency sample, all routes together.
func (a *apiLog) all() []float64 {
	var xs []float64
	for _, r := range []string{routePost, routeAlerts, routeMachines} {
		xs = append(xs, a.lat[r]...)
	}
	return xs
}

// server serves a handler on a loopback listener until close.
type server struct {
	srv  *http.Server
	addr string
	done chan error
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server and waits for its Serve goroutine to return.
func (s *server) close() {
	_ = s.srv.Close() // Close reports only listener errors; Serve's result is drained below.
	<-s.done
}

// client is the benchmark's one HTTP client: a single keep-alive
// connection, one request at a time (a closed loop).
type client struct {
	base string
	hc   *http.Client
	log  *apiLog
}

func newClient(addr string, log *apiLog) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, log: log}
}

// close drops the client's idle connection.
func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request, times it end to end (until the whole body is
// read), and decodes a 2xx JSON body into out. A non-2xx answer is a
// failed request.
func (c *client) do(route, method, path string, body any, out any) (time.Time, time.Time, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return time.Time{}, time.Time{}, err
		}
		rd = bytes.NewReader(buf)
	}
	t0 := time.Now()
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return t0, t0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		t1 := time.Now()
		c.log.record(route, t1.Sub(t0), 0)
		return t0, t1, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	ok := err == nil && resp.StatusCode/100 == 2
	c.log.record(route, t1.Sub(t0), len(data))
	if err != nil {
		return t0, t1, err
	}
	if !ok {
		return t0, t1, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return t0, t1, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return t0, t1, nil
}
