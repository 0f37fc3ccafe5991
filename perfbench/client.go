package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"ppqtraj/internal/geo"
	"ppqtraj/internal/serve"
	"ppqtraj/internal/traj"
)

// maxClients is the connection and client-goroutine budget: one load
// process, no more than the two cores of the reference machine.
const maxClients = 2

// requestTimeout bounds one request's round trip.
const requestTimeout = 60 * time.Second

// server serves whichever repository is current on a loopback listener,
// so each reopen of the set-up directory is served under one address.
type server struct {
	cur  atomic.Pointer[serve.Repository]
	srv  *http.Server
	addr string
	done chan struct{}
	idle chan *clientConn // keep-alive connections not in use
}

// clientConn is one keep-alive connection, used by one goroutine at a
// time. The client writes each request and reads its response on the
// calling goroutine (http.Request.Write, http.ReadResponse) rather than
// through http.Transport, whose per-connection reader and writer
// goroutines add two cross-core wake-ups to every request: on the
// two-core reference machine they were about 40% of a short window's
// latency, and their cost varied with the load on the host.
type clientConn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{addr: ln.Addr().String(), done: make(chan struct{}), idle: make(chan *clientConn, maxClients)}
	s.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		repo := s.cur.Load()
		if repo == nil {
			http.Error(w, "no repository", http.StatusServiceUnavailable)
			return
		}
		repo.Handler().ServeHTTP(w, r)
	})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed after stop
	}()
	return s, nil
}

// stop closes the listener and every connection and waits for Serve to
// return. No request may be in flight.
func (s *server) stop() {
	s.srv.Close()
	<-s.done
	for {
		select {
		case cc := <-s.idle:
			cc.c.Close()
		default:
			return
		}
	}
}

// conn takes an idle keep-alive connection or dials a new one.
func (s *server) conn() (*clientConn, error) {
	select {
	case cc := <-s.idle:
		return cc, nil
	default:
	}
	c, err := net.Dial("tcp", s.addr)
	if err != nil {
		return nil, err
	}
	return &clientConn{c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}, nil
}

// release keeps cc for the next request, or closes it when the pool is
// full.
func (s *server) release(cc *clientConn) {
	select {
	case s.idle <- cc:
	default:
		cc.c.Close()
	}
}

// post sends one JSON request body and returns the body of a 200 reply.
// Any other status is an error: a 429 or a 5xx counts as a failed
// operation. The caller encodes before and decodes after, so a timed
// post is the round trip to the last byte of the reply and no client
// JSON work.
func (s *server) post(path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, "http://"+s.addr+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	cc, err := s.conn()
	if err != nil {
		return nil, err
	}
	out, err := cc.roundTrip(req)
	if err != nil {
		var se *statusError
		if !errors.As(err, &se) {
			// The connection's state is unknown: drop it.
			cc.c.Close()
			return nil, err
		}
	}
	s.release(cc)
	return out, err
}

// roundTrip writes req and reads the whole response. A non-200 reply
// is a *statusError and leaves the connection reusable.
func (cc *clientConn) roundTrip(req *http.Request) ([]byte, error) {
	if err := cc.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return nil, err
	}
	if err := req.Write(cc.bw); err != nil {
		return nil, err
	}
	if err := cc.bw.Flush(); err != nil {
		return nil, err
	}
	resp, err := http.ReadResponse(cc.br, req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg := bytes.TrimSpace(body[:min(len(body), 512)])
		return nil, &statusError{code: resp.StatusCode, msg: string(msg)}
	}
	return body, nil
}

type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.msg) }

// isShed reports a 429 (admission control refused the request).
func isShed(err error) bool {
	var se *statusError
	return errors.As(err, &se) && se.code == http.StatusTooManyRequests
}

// Request paths and bodies.
const (
	pathQuery  = "/v1/query"
	pathWindow = "/v1/window"
	pathIngest = "/v1/ingest"
)

func queryBody(reqs []serve.STRQRequest) ([]byte, error) {
	return json.Marshal(serve.QueryRequest{Queries: reqs})
}

func windowBody(w serve.WindowRequest) ([]byte, error) { return json.Marshal(w) }

func ingestBody(col *traj.Column) ([]byte, error) {
	pts := make([]serve.IngestPoint, len(col.IDs))
	for i, id := range col.IDs {
		pts[i] = serve.IngestPoint{ID: id, X: col.Points[i].X, Y: col.Points[i].Y}
	}
	return json.Marshal(serve.IngestRequest{Ticks: []serve.IngestTick{{Tick: col.Tick, Points: pts}}})
}

// decodeQuery decodes a /v1/query reply to n probes; a probe answered
// with an error fails the request.
func decodeQuery(body []byte, n int) ([]serve.STRQAnswer, error) {
	var out serve.QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, err
	}
	if len(out.Answers) != n {
		return nil, fmt.Errorf("query: %d answers for %d probes", len(out.Answers), n)
	}
	for i := range out.Answers {
		if out.Answers[i].Err != "" {
			return nil, fmt.Errorf("query probe %d: %s", i, out.Answers[i].Err)
		}
	}
	return out.Answers, nil
}

func decodeWindow(body []byte) (*serve.WindowResult, error) {
	var out serve.WindowResult
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// checkIngest decodes a /v1/ingest reply to one tick of col.
func checkIngest(body []byte, col *traj.Column) error {
	var out serve.IngestResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return err
	}
	if out.AcceptedPoints != len(col.IDs) {
		return fmt.Errorf("ingest tick %d: %d of %d points accepted", col.Tick, out.AcceptedPoints, len(col.IDs))
	}
	return nil
}

// squareAround is the side-metres square centred on p.
func squareAround(p geo.Point, sideM float64) geo.Rect {
	h := geo.MetersToDegrees(sideM) / 2
	return geo.Rect{MinX: p.X - h, MinY: p.Y - h, MaxX: p.X + h, MaxY: p.Y + h}
}
