package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/server"
)

// deployment is the program under test for one run: a primary daemon and,
// on follower_submit, the follower the clients talk to.
type deployment struct {
	bin      string
	primary  *daemon
	follower *daemon
	// args are the primary's flags, kept to restart it after the crash.
	args    []string
	dataDir string
}

// deploy executes the workload's daemons with production defaults plus the
// flags the workload names, on a fresh data directory under work.
func deploy(sp spec, bin, work string) (*deployment, error) {
	d := &deployment{bin: bin}
	d.args = []string{"-preset", "facebook", "-users", strconv.Itoa(sp.users)}
	if sp.durable {
		dir, err := os.MkdirTemp(work, "data-")
		if err != nil {
			return nil, err
		}
		d.dataDir = dir
		d.args = append(d.args, "-data-dir", dir)
		d.args = append(d.args, sp.walFlags()...)
	}
	var err error
	if d.primary, err = startDaemon(bin, d.args...); err != nil {
		d.close(syscall.SIGKILL)
		return nil, err
	}
	return d, nil
}

// follow starts the follower at the daemon's default -repl-poll and waits
// until its replica has caught up with the primary once. It runs after
// the policies are installed, so the bootstrap checkpoint carries them.
func (d *deployment) follow() error {
	var err error
	if d.follower, err = startDaemon(d.bin, "-follow", d.primary.base); err != nil {
		return err
	}
	cl := &server.Client{BaseURL: d.follower.base, Token: adminToken}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := cl.FollowerStats()
		if err == nil && st.Follower.Synced {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower did not sync within 30s (last error: %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// target is the base URL the clients submit to.
func (d *deployment) target() string {
	if d.follower != nil {
		return d.follower.base
	}
	return d.primary.base
}

// daemons lists the running processes, the ones CPU and memory are summed
// over.
func (d *deployment) daemons() []*daemon {
	if d.follower != nil {
		return []*daemon{d.primary, d.follower}
	}
	return []*daemon{d.primary}
}

// restart brings the primary back on the same data directory after a
// SIGKILL and returns how long it took from exec to the first 200 from
// /v1/stats.
func (d *deployment) restart() (time.Duration, error) {
	p, err := startDaemon(d.bin, d.args...)
	if err != nil {
		return 0, err
	}
	d.primary = p
	if _, err := (&server.Client{BaseURL: p.base, Token: adminToken}).Stats(); err != nil {
		return 0, fmt.Errorf("stats after restart: %w", err)
	}
	return time.Since(p.execAt), nil
}

// close stops every daemon with sig, waits for them, and removes the data
// directory.
func (d *deployment) close(sig syscall.Signal) {
	if d.follower != nil {
		_ = d.follower.signal(sig)
	}
	if d.primary != nil {
		_ = d.primary.signal(sig)
	}
	if d.dataDir != "" {
		_ = os.RemoveAll(d.dataDir)
	}
}

// countingTransport counts the response-body bytes its client reads, the
// numerator of server.resp_bytes_per_op, and collects the replica
// staleness a follower declares on every data response.
type countingTransport struct {
	rt    http.RoundTripper
	bytes atomic.Int64
	// stale is appended to by the one goroutine that owns the client.
	stale []float64
}

// RoundTrip implements http.RoundTripper.
func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.rt.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	if h := resp.Header.Get(server.StalenessHeader); h != "" {
		if s, err := strconv.ParseFloat(h, 64); err == nil {
			t.stale = append(t.stale, s)
		}
	}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// newHTTPClient returns a client holding one keep-alive connection per
// host: each load-generator client is one app with one connection.
func newHTTPClient() (*http.Client, *countingTransport) {
	ct := &countingTransport{rt: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	return &http.Client{Transport: ct, Timeout: 60 * time.Second}, ct
}

// scrape fetches a daemon's Prometheus exposition and returns its samples
// keyed by series text (name plus label set, as exposed) and, summed over
// label sets, by bare name.
func scrape(base string) (map[string]float64, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+adminToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		series := line[:i]
		out[series] = v
		if j := strings.IndexByte(series, '{'); j >= 0 {
			out[series[:j]] += v
		}
	}
	return out, sc.Err()
}
