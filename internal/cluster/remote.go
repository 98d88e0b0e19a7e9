package cluster

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"steppingnet/internal/serve"
)

// Per replica: connections open (past them a caller waits) and idle,
// how long one may idle, and how much answer a hostile one can feed us.
const (
	remoteMaxConns    = 64
	remoteMaxIdle     = 4
	remoteIdleTimeout = 30 * time.Second
	remoteMaxResp     = 8 << 20
)

// Remote is the HTTP implementation of Backend: one stepserve replica
// reached over its JSON surface (POST /infer, GET /stats, GET
// /healthz), spoken to over HTTP/1.1 by Remote itself on the caller's
// goroutine — one writev out, the input text by reference, and
// http.ReadResponse back — on a bounded pool of keep-alive connections
// (https through crypto/tls with the system's roots). The context's
// deadline and cancellation bound the exchange. Create with NewRemote.
type Remote struct {
	target, addr string
	dial         func(ctx context.Context, network, addr string) (net.Conn, error)
	// The heads: /infer's up to its Content-Length value, the GETs whole.
	infer, stats, health []byte
	// A token per exchange in flight: one is dialled only when none is
	// idle, so connections never outnumber the tokens.
	slots chan struct{}
	idle  chan *remoteConn
}

// remoteConn is a connection and the buffers of the exchange on it.
type remoteConn struct {
	net.Conn
	br         *bufio.Reader
	idleSince  time.Time
	reused     bool // it has been in the pool
	answered   bool // a byte of this exchange's answer arrived
	keep       bool // it may carry another exchange
	head, tail []byte
	vec        [4][]byte
	out        net.Buffers // the request, over vec
	body       bytes.Buffer
	lim        io.LimitedReader
}

// NewRemote builds a Remote for a base URL like "http://host:8080"
// (a trailing slash is tolerated).
func NewRemote(target string) *Remote {
	r := &Remote{target: strings.TrimRight(target, "/"),
		slots: make(chan struct{}, remoteMaxConns), idle: make(chan *remoteConn, remoteMaxIdle)}
	u, err := url.Parse(r.target)
	switch {
	case err != nil:
	case u.Host == "":
		err = errors.New("no host in the target URL")
	case u.Scheme == "http":
		r.dial = new(net.Dialer).DialContext
	case u.Scheme == "https":
		r.dial = (&tls.Dialer{Config: &tls.Config{ServerName: u.Hostname()}}).DialContext
	default:
		err = fmt.Errorf("unsupported protocol scheme %q", u.Scheme)
	}
	if err != nil { // every exchange fails to dial, with why
		r.dial = func(context.Context, string, string) (net.Conn, error) { return nil, err }
		return r
	}
	if r.addr = u.Host; u.Port() == "" {
		r.addr = net.JoinHostPort(u.Hostname(), map[string]string{"http": "80", "https": "443"}[u.Scheme])
	}
	head := func(method, path string) []byte {
		return []byte(method + " " + u.EscapedPath() + path + " HTTP/1.1\r\nHost: " + u.Host + "\r\n")
	}
	r.infer = append(head("POST", "/infer"), "Content-Type: application/json\r\nContent-Length: "...)
	r.stats, r.health = append(head("GET", "/stats"), "\r\n"...), append(head("GET", "/healthz"), "\r\n"...)
	return r
}

// Submit implements Backend: POST /infer with the wire payload (the
// input forwarded as the text it arrived in when req carries it),
// mapping the replica's documented statuses back to the typed errors
// the in-process server returns — 503 to serve.ErrOverloaded (or
// serve.ErrClosed when the replica says it is draining), 400 to
// serve.ErrBadInput, anything transport-shaped to ErrTransport.
func (r *Remote) Submit(ctx context.Context, req serve.Request) (serve.Result, error) {
	c, status, body, err := r.exchange(ctx, func(c *remoteConn) (err error) {
		// The body around the input text, written with an empty one;
		// the text goes out by reference where that one is.
		around, at := req, 0
		if req.InputJSON != nil {
			around.InputJSON, at = []byte{}, len(`{"input":`)
		}
		if c.tail, err = appendInferRequest(c.tail[:0], around); err != nil {
			return fmt.Errorf("%w: %v", serve.ErrBadInput, err)
		}
		c.head = append(strconv.AppendInt(append(c.head[:0], r.infer...), int64(len(c.tail)+len(req.InputJSON)), 10), "\r\n\r\n"...)
		c.out = append(c.vec[:0], c.head, c.tail[:at], req.InputJSON, c.tail[at:])
		return nil
	})
	defer r.release(c)
	switch {
	case err != nil:
		return serve.Result{}, err
	case status == http.StatusOK:
		wire, err := decodeInferResponse(body)
		if err != nil {
			c.keep = false // whatever else this replica says is suspect
			return serve.Result{}, fmt.Errorf("%w: %s: bad answer body: %v", ErrTransport, r.target, err)
		}
		return wire.Result(), nil
	case status == http.StatusServiceUnavailable:
		msg := errText(body)
		if strings.Contains(msg, serve.ErrClosed.Error()) || strings.Contains(msg, "draining") {
			return serve.Result{}, fmt.Errorf("%w: %s: %s", serve.ErrClosed, r.target, msg)
		}
		return serve.Result{}, fmt.Errorf("%w: %s: %s", serve.ErrOverloaded, r.target, msg)
	case status == http.StatusBadRequest:
		return serve.Result{}, fmt.Errorf("%w: %s: %s", serve.ErrBadInput, r.target, errText(body))
	}
	return serve.Result{}, fmt.Errorf("%w: %s: unexpected status %d: %s", ErrTransport, r.target, status, errText(body))
}

// Stats implements Backend: GET /stats.
func (r *Remote) Stats(ctx context.Context) (snap serve.Snapshot, err error) {
	c, status, body, err := r.exchange(ctx, func(c *remoteConn) error { c.out = append(c.vec[:0], r.stats); return nil })
	defer r.release(c)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("%w: %s: /stats status %d", ErrTransport, r.target, status)
	} else if err == nil && json.Unmarshal(body, &snap) != nil {
		err = fmt.Errorf("%w: %s: bad stats body %.64q", ErrTransport, r.target, body)
	}
	return snap, err
}

// Health implements Backend: GET /healthz, where anything but a 200
// — including a clean 503 from a draining or still-calibrating
// replica — means "send no work here".
func (r *Remote) Health(ctx context.Context) error {
	c, status, body, err := r.exchange(ctx, func(c *remoteConn) error { c.out = append(c.vec[:0], r.health); return nil })
	defer r.release(c)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("%s: /healthz status %d: %s", r.target, status, errText(body))
	}
	return err
}

// Target implements Backend.
func (r *Remote) Target() string { return r.target }

// Close implements Backend by closing the idle connections. The Remote
// stays usable: a later exchange dials again.
func (r *Remote) Close() {
	for {
		select {
		case c := <-r.idle:
			c.Close()
		default:
			return
		}
	}
}

// exchange claims a slot (waiting within ctx) and a connection — a
// pooled one young enough, or a new one — has fill lay the request out
// in its buffers, and sends it. It returns the answer and the
// connection, for release once the body is read (nil if none was
// claimed). A pooled connection that fails before a byte of answer —
// the replica closed it while it idled — is retried once, fresh.
func (r *Remote) exchange(ctx context.Context, fill func(*remoteConn) error) (c *remoteConn, status int, body []byte, err error) {
	select {
	case r.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, 0, nil, fmt.Errorf("%w: %s: %w", ErrTransport, r.target, ctx.Err())
	}
	for c == nil {
		select {
		case c = <-r.idle:
			if time.Since(c.idleSince) > remoteIdleTimeout {
				c.Close()
				c = nil
			}
		default:
			if c, err = r.connect(ctx); err != nil {
				<-r.slots
				return nil, 0, nil, fmt.Errorf("%w: %s: %w", ErrTransport, r.target, err)
			}
		}
	}
	if err = fill(c); err != nil {
		c.keep = true // untouched
		return c, 0, nil, err
	}
	status, body, err = c.roundTrip(ctx)
	if err != nil && c.reused && !c.answered && ctx.Err() == nil && !errors.Is(err, os.ErrDeadlineExceeded) {
		c.Close() // and, if no fresh one can be had, again on release
		if fresh, derr := r.connect(ctx); derr != nil {
			err = derr
		} else if c = fresh; fill(c) == nil {
			status, body, err = c.roundTrip(ctx)
		}
	}
	if err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) || ctx.Err() != nil {
			// The cause, not the i/o timeout it set off: the connection's
			// deadline is the context's, whose own timer may not have fired.
			err = cmp.Or(ctx.Err(), context.DeadlineExceeded)
		}
		return c, 0, nil, fmt.Errorf("%w: %s: %w", ErrTransport, r.target, err)
	}
	return c, status, body, nil
}

func (r *Remote) connect(ctx context.Context) (*remoteConn, error) {
	conn, err := r.dial(ctx, "tcp", r.addr)
	if err != nil {
		return nil, err
	}
	return &remoteConn{Conn: conn, br: bufio.NewReader(conn)}, nil
}

// release ends the exchange on c, if any, freeing its slot: c goes to
// the pool if it may carry another exchange and there is room, else it
// is closed.
func (r *Remote) release(c *remoteConn) {
	if c == nil {
		return
	}
	if c.keep {
		c.idleSince, c.reused, c.keep = time.Now(), true, false
		select {
		case r.idle <- c:
			<-r.slots
			return
		default:
		}
	}
	c.Close()
	<-r.slots
}

// roundTrip writes c.out with one writev and reads one answer whole,
// under ctx's deadline and cancellation. c.keep is whether c may carry
// another: the body read to its end and nothing after it, nothing
// failed or fired, and the answer did not ask to close.
func (c *remoteConn) roundTrip(ctx context.Context) (status int, body []byte, err error) {
	c.answered = false
	deadline, _ := ctx.Deadline()
	c.SetDeadline(deadline)                                                   //nolint:errcheck — a closed connection fails the write below
	stop := context.AfterFunc(ctx, func() { c.SetDeadline(time.Unix(1, 0)) }) //nolint:errcheck — as above
	var resp *http.Response
	if _, err = c.out.WriteTo(c.Conn); err == nil {
		if _, err = c.br.Peek(1); err == nil {
			c.answered = true
			resp, err = http.ReadResponse(c.br, nil)
		}
	}
	if err == nil {
		c.body.Reset()
		c.lim = io.LimitedReader{R: resp.Body, N: remoteMaxResp + 1}
		if _, err = c.body.ReadFrom(&c.lim); err == nil && c.lim.N == 0 {
			err = fmt.Errorf("answer body over %d bytes", remoteMaxResp)
		}
	}
	if err == nil && c.br.Buffered() > 0 {
		err = fmt.Errorf("%d bytes after the answer", c.br.Buffered())
	}
	if c.keep = stop() && err == nil && !resp.Close; err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

// errText is the start of an error answer's body, for messages.
func errText(body []byte) string {
	return strings.TrimSpace(string(body[:min(len(body), 512)]))
}
