package repl

import (
	"bufio"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// rpcTimeout bounds one request to the primary: a fetch on
// FollowerOptions.HTTP, and a decision RPC from its first dial to the last
// byte of its reply, a retry included.
const rpcTimeout = 15 * time.Second

// idleConnsPerPrimary bounds the follower's idle decision connections: with
// fewer than the number of submissions waiting on a decision RPC at once,
// every further RPC dials a connection and tears it down.
const idleConnsPerPrimary = 64

// decider sends the decision RPC on connections it dials itself. The
// goroutine deciding a submission takes an idle connection (or dials one),
// writes the request and reads the reply on it, and puts it back: one HTTP
// exchange, with no http.Transport and no goroutine in between.
type decider struct {
	addr string      // host:port dialed
	tls  *tls.Config // nil for an http primary
	// head is every request's fixed head: the request line and the
	// headers up to the epoch.
	head string

	mu   sync.Mutex
	idle []*decideConn // most recently used last
}

// decideConn is one connection to the primary and the buffers of the RPCs
// made on it.
type decideConn struct {
	conn net.Conn
	br   *bufio.Reader
	req  []byte // the request as written: head and body
	body []byte // the request's body, then the reply's
}

// parsePrimary checks a primary base URL — scheme http or https, a host, no
// query and no fragment — and returns it with trailing slashes trimmed,
// together with the decider that reaches it. An https primary is dialed
// through crypto/tls, with hc's TLS settings when it has any.
func parsePrimary(primary, token string, hc *http.Client) (string, *decider, error) {
	u, err := url.Parse(primary)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" || u.RawQuery != "" || u.ForceQuery || u.Fragment != "" {
		return "", nil, fmt.Errorf("repl: primary URL %q: want http:// or https:// and a host, with no query or fragment", primary)
	}
	port := u.Port()
	switch {
	case port != "":
	case u.Scheme == "https":
		port = "443"
	default:
		port = "80"
	}
	d := &decider{
		addr: net.JoinHostPort(u.Hostname(), port),
		head: "POST " + strings.TrimRight(u.EscapedPath(), "/") + "/v1/repl/decide HTTP/1.1\r\n" +
			"Host: " + u.Host + "\r\n" +
			"Authorization: Bearer " + token + "\r\n" +
			"Content-Type: application/json\r\n" +
			HeaderEpoch + ": ",
	}
	if u.Scheme == "https" {
		d.tls = &tls.Config{}
		if tr, ok := hc.Transport.(*http.Transport); ok && tr.TLSClientConfig != nil {
			d.tls = tr.TLSClientConfig.Clone()
		}
		if d.tls.ServerName == "" {
			d.tls.ServerName = u.Hostname()
		}
		d.tls.NextProtos = nil // HTTP/1.1
	}
	return strings.TrimRight(primary, "/"), d, nil
}

// roundTrip sends req and reads the reply's status line and headers; the
// caller reads the body and releases the connection. A reused connection
// that fails before the reply's first byte — the primary closed it while
// idle, or a partition killed it — is retried once on a fresh dial: the
// primary is the authority, and deciding a query again never changes a
// monitor's state. Any later failure, and any failure on a fresh
// connection, is the RPC's.
func (d *decider) roundTrip(req *DecideRequest) (*decideConn, *http.Response, error) {
	deadline := time.Now().Add(rpcTimeout)
	if cn := d.reuse(); cn != nil {
		resp, replied, err := cn.send(d.head, req, deadline)
		if err == nil {
			return cn, resp, nil
		}
		cn.conn.Close()
		if replied || errors.Is(err, os.ErrDeadlineExceeded) {
			return nil, nil, err
		}
	}
	cn, err := d.dial(deadline)
	if err != nil {
		return nil, nil, err
	}
	resp, _, err := cn.send(d.head, req, deadline)
	if err != nil {
		cn.conn.Close()
		return nil, nil, err
	}
	return cn, resp, nil
}

// send writes one request on cn and reads the reply's status line and
// headers; replied reports whether the reply's first byte had arrived
// when it failed.
func (cn *decideConn) send(head string, req *DecideRequest, deadline time.Time) (resp *http.Response, replied bool, err error) {
	if err := cn.conn.SetDeadline(deadline); err != nil {
		return nil, false, err
	}
	cn.body = appendDecideRequest(cn.body[:0], req)
	cn.req = append(cn.req[:0], head...)
	cn.req = strconv.AppendUint(cn.req, req.Epoch, 10)
	cn.req = append(cn.req, "\r\nContent-Length: "...)
	cn.req = strconv.AppendInt(cn.req, int64(len(cn.body)), 10)
	cn.req = append(cn.req, "\r\n\r\n"...)
	cn.req = append(cn.req, cn.body...)
	if _, err := cn.conn.Write(cn.req); err != nil {
		return nil, false, err
	}
	if _, err := cn.br.Peek(1); err != nil {
		return nil, false, err
	}
	resp, err = http.ReadResponse(cn.br, nil)
	return resp, true, err
}

// reuse takes the most recently used idle connection, or nil.
func (d *decider) reuse() *decideConn {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.idle)
	if n == 0 {
		return nil
	}
	cn := d.idle[n-1]
	d.idle[n-1] = nil
	d.idle = d.idle[:n-1]
	return cn
}

// release puts cn, whose reply's body has been read whole, back in the
// pool — unless the reply said Connection: close or the pool is full, in
// which case it closes it.
func (d *decider) release(cn *decideConn, resp *http.Response) {
	if cap(cn.body) > bufRetainLimit {
		cn.req, cn.body = nil, nil
	}
	if !resp.Close {
		d.mu.Lock()
		if len(d.idle) < idleConnsPerPrimary {
			d.idle = append(d.idle, cn)
			d.mu.Unlock()
			return
		}
		d.mu.Unlock()
	}
	cn.conn.Close()
}

// dial opens a fresh connection to the primary.
func (d *decider) dial(deadline time.Time) (*decideConn, error) {
	nd := &net.Dialer{Deadline: deadline}
	var c net.Conn
	var err error
	if d.tls != nil {
		c, err = (&tls.Dialer{NetDialer: nd, Config: d.tls}).Dial("tcp", d.addr)
	} else {
		c, err = nd.Dial("tcp", d.addr)
	}
	if err != nil {
		return nil, err
	}
	return &decideConn{conn: c, br: bufio.NewReader(c)}, nil
}
