package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"

	"repro/internal/server"
)

// The echo server is the benchmark's yardstick for the host, not part of
// the program under test. This sandbox is a small virtual machine whose
// speed drifts by tens of percent over minutes, and most of a submission's
// round trip is loopback HTTP and thread wake-ups that drift with it. So
// every client interleaves null round trips with its real ops — POST the
// last submit body to a second child process, which decodes the JSON,
// encodes it again and sends it back: what any JSON-over-HTTP service must
// do, and nothing the monitor does — and the gated latency and throughput
// metrics are reported in units of that null round trip, measured on the
// same host in the same seconds. A change to the daemon, its HTTP layer
// included, moves the ratio; the host's mood mostly does not.

// echoEnv, set in the environment, turns this binary (or the test binary)
// into the echo server.
const echoEnv = "DISCLOSURE_BENCHMARK_ECHO"

// runEcho serves POST /echo on an ephemeral loopback port until standard
// input closes, which it does when the parent exits.
func runEcho() error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	log.Printf("echo: serving on %s", l.Addr())
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	return http.Serve(l, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req server.SubmitRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(req)
	}))
}

// startEcho executes this same binary as the echo server.
func startEcho() (*daemon, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return startProcess(exec.Command(self), echoEnv+"=1")
}

// echoOnce is one null round trip: the request goes out as JSON and must
// come back unchanged.
func echoOnce(hc *http.Client, base string, req server.SubmitRequest) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := hc.Post(base+"/echo", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var back server.SubmitRequest
	if err := json.NewDecoder(resp.Body).Decode(&back); err != nil {
		return fmt.Errorf("echo: %s: %w", resp.Status, err)
	}
	if back.Query != req.Query {
		return fmt.Errorf("echo: %s: sent %q, got %q back", resp.Status, req.Query, back.Query)
	}
	return nil
}
