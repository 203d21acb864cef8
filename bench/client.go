package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// connections is the whole load the generator may put on the server: two
// keep-alive connections (= nproc of the reference box), never more. Closed
// loops run one client per connection; the open loop dispatches over the
// same two.
const connections = 2

// client talks to one server over at most `connections` keep-alive
// connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     connections,
		MaxIdleConnsPerHost: connections,
		IdleConnTimeout:     time.Minute,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// statusError is a non-200 answer; the body says why.
type statusError struct {
	status int
	body   string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// do sends one request and decodes a 200 answer into out (nil discards it).
func (c *client) do(method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return &statusError{status: resp.StatusCode, body: lastLines(string(data), 2)}
	}
	switch o := out.(type) {
	case nil:
		return nil
	case *[]byte:
		*o = data
		return nil
	default:
		return json.Unmarshal(data, out)
	}
}

func (c *client) post(path string, body []byte, out any) error {
	return c.do(http.MethodPost, path, body, out)
}

func (c *client) get(path string, out any) error { return c.do(http.MethodGet, path, nil, out) }

// queryResponse is the part of a /query answer the harness checks. Degraded
// is set only by a cluster coordinator that lost a shard.
type queryResponse struct {
	Neighbors []struct {
		ID       int     `json:"id"`
		Distance float64 `json:"distance"`
	} `json:"neighbors"`
	IDs     []int `json:"ids"`
	Matches []struct {
		ID   int     `json:"id"`
		Prob float64 `json:"prob"`
	} `json:"matches"`
	Total    int  `json:"total"`
	Degraded bool `json:"degraded"`
}

// seriesResponse is the answer to POST /series.
type seriesResponse struct {
	IDs     []int `json:"ids"`
	Deleted int   `json:"deleted"`
	Series  int   `json:"series"`
}

// health is /healthz of a single node (Series) or of a coordinator (Shards).
type health struct {
	Status string `json:"status"`
	Series int    `json:"series"`
	Shards []struct {
		Health *struct {
			Series int `json:"series"`
		} `json:"health"`
	} `json:"shards"`
}

func (h health) series() int {
	n := h.Series
	for _, sh := range h.Shards {
		if sh.Health != nil {
			n += sh.Health.Series
		}
	}
	return n
}

// waitHealthy polls /healthz until the server reports status ok with exactly
// want resident series. A child that exits meanwhile fails at once.
func (c *client) waitHealthy(ch *child, want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		if err := ch.alive(); err != nil {
			return err
		}
		var h health
		if last = c.get("/healthz", &h); last == nil {
			if h.Status == "ok" && h.series() == want {
				return nil
			}
			last = fmt.Errorf("healthz says status %q with %d series, want ok with %d", h.Status, h.series(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("server not healthy after %v: %w", timeout, last)
}
