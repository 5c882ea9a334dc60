package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"

	disclosure "repro"
)

// Client is a typed HTTP client for the disclosured API, used by the
// repository benchmark's closed-loop load generator (benchmark/) and the
// end-to-end tests. Zero value is not usable; set BaseURL, a token, and
// optionally HTTP.
//
// Submit and SubmitBatch decode the response with the scanner of
// clientdecode.go: the values of a returned SubmitResult — its rows' cells
// above all — are substrings of the one string the response body was read
// into, so a caller that retains a single cell keeps that whole body alive;
// strings.Clone what outlives the answer.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Token authenticates requests: a principal's submission token, or the
	// admin token for policy and load calls.
	Token string
	// HTTP is the underlying client (http.DefaultClient when nil); point
	// it at a shared Transport to control connection pooling under load.
	HTTP *http.Client
}

// drainLimit bounds what do reads past the part of a response it used;
// beyond it, dropping the connection is cheaper than reading on.
const drainLimit = 1 << 20

// do sends a request with the client's bearer token and hands the 2xx
// response's body to read (nil ignores it). Non-2xx responses are returned
// as errors carrying the server's ErrorResponse message.
func (c *Client) do(method, path string, body any, read func(io.Reader) error) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+c.Token)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	// Read the body to its end before closing it, whatever the outcome:
	// net/http reuses a connection only once the response on it was read to
	// EOF, and neither an ignored body nor a json.Decoder (which stops at the
	// end of the value) gets there.
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, drainLimit))
		resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		var e ErrorResponse
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("server: %s %s: %s (%s)", method, path, e.Error, resp.Status)
		}
		return fmt.Errorf("server: %s %s: %s", method, path, resp.Status)
	}
	if read == nil {
		return nil
	}
	return read(resp.Body)
}

// into decodes a JSON response body into out.
func into(out any) func(io.Reader) error {
	return func(r io.Reader) error { return json.NewDecoder(r).Decode(out) }
}

// submit posts one submit request and decodes its response: the body is
// read whole into a pooled buffer, becomes one string, and is scanned
// (decodeSubmitResponse).
func (c *Client) submit(req SubmitRequest) (results []SubmitResult, err error) {
	err = c.do(http.MethodPost, "/v1/submit", req, func(r io.Reader) error {
		buf := respBufs.Get().(*[]byte)
		defer putRespBuf(buf)
		var err error
		if *buf, err = readBody(r, (*buf)[:0]); err != nil {
			return err
		}
		resp, err := decodeSubmitResponse(string(*buf), max(1, len(req.Queries)))
		results = resp.Results
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Submit submits one query in datalog syntax and returns its result.
func (c *Client) Submit(query string) (SubmitResult, error) {
	results, err := c.submit(SubmitRequest{Query: query})
	if err != nil {
		return SubmitResult{}, err
	}
	if len(results) != 1 {
		return SubmitResult{}, fmt.Errorf("server: submit returned %d results, want 1", len(results))
	}
	return results[0], nil
}

// SubmitBatch submits a batch of queries; results align with queries.
func (c *Client) SubmitBatch(queries []string) ([]SubmitResult, error) {
	return c.submit(SubmitRequest{Queries: queries})
}

// Explain fetches the structured admissibility account of a query without
// submitting it.
func (c *Client) Explain(query string) (disclosure.Explanation, error) {
	var e disclosure.Explanation
	err := c.do(http.MethodGet, "/v1/explain?q="+url.QueryEscape(query), nil, into(&e))
	return e, err
}

// SetPolicy installs a principal's policy and submission token (admin).
func (c *Client) SetPolicy(principal, token string, partitions map[string][]string) error {
	return c.do(http.MethodPut, "/v1/policy/"+url.PathEscape(principal),
		PolicyRequest{Token: token, Partitions: partitions}, nil)
}

// RemovePolicy removes a principal (admin).
func (c *Client) RemovePolicy(principal string) error {
	return c.do(http.MethodDelete, "/v1/policy/"+url.PathEscape(principal), nil, nil)
}

// Load bulk-loads rows in one snapshot publication (admin).
func (c *Client) Load(rows []LoadRow) error {
	return c.do(http.MethodPost, "/v1/load", LoadRequest{Rows: rows}, nil)
}

// Stats fetches the system counters.
func (c *Client) Stats() (StatsResponse, error) {
	var st StatsResponse
	err := c.do(http.MethodGet, "/v1/stats", nil, into(&st))
	return st, err
}

// FollowerStats fetches a follower's counters plus its replication status
// block (lag, applied operations, resyncs). Against a primary the block
// decodes as its zero value.
func (c *Client) FollowerStats() (FollowerStatsResponse, error) {
	var st FollowerStatsResponse
	err := c.do(http.MethodGet, "/v1/stats", nil, into(&st))
	return st, err
}
