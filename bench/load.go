package main

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"time"
)

// sample is one request as the load generator saw it: which request, how
// long from the first byte sent to the last byte of the response, and what
// came back.
type sample struct {
	req     int // index into the request list
	latency time.Duration
	status  int
	body    []byte
	err     error
}

// client owns one keep-alive connection to the daemon.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		base: base,
		hc: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   60 * time.Second,
		},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) do(r *request) (int, []byte, error) {
	resp, err := c.hc.Post(c.base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// send issues request i and times it.
func (c *client) send(reqs []request, i int) sample {
	start := time.Now()
	status, body, err := c.do(&reqs[i])
	return sample{req: i, latency: time.Since(start), status: status, body: body, err: err}
}

// onePass sends every request once, spread over the given number of
// clients: the warm-up cycle, and the first-touch pass after a restart.
// Samples come back in request order.
func onePass(base string, reqs []request, clients int) []sample {
	out := make([]sample, len(reqs))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(base)
			defer cl.close()
			for i := c; i < len(reqs); i += clients {
				out[i] = cl.send(reqs, i)
			}
		}(c)
	}
	wg.Wait()
	return out
}

// closedLoop runs the given number of clients for the window, each
// sending its next request only when the previous one has been answered,
// cycling the request list from evenly spaced offsets. It returns the
// samples and the time from the first send to the last answer.
func closedLoop(base string, reqs []request, clients int, window time.Duration) ([]sample, time.Duration) {
	perClient := make([][]sample, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(base)
			defer cl.close()
			for i := c * len(reqs) / clients; time.Since(start) < window; i++ {
				perClient[c] = append(perClient[c], cl.send(reqs, i%len(reqs)))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []sample
	for _, s := range perClient {
		out = append(out, s...)
	}
	return out, elapsed
}
