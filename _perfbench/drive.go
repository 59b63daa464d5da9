package main

// The closed loop: a fixed number of connections, each sending
// its next request only after the previous answer's last byte arrived.
// The same loop drives the daemon over HTTP and the in-process traced
// replay, so both see one request order policy.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// conns is the connection count of every workload: the generator host
// has nproc = 2, and callers wait for their plan (a closed loop).
const conns = 2

// closedLoop sends units on conns connections. Units are handed out in
// order to whichever connection is free, and a connection sends a unit's
// requests in order. A Dual request is also sent by the other connection
// at its next request boundary, so both copies are in flight together.
// do is called with the connection, the request's index in the flattened
// sequence, and whether this is the duplicate copy.
func closedLoop(units []Unit, do func(conn, id int, dup bool)) time.Duration {
	if len(units) == 0 {
		return 0
	}
	first := make([]int, len(units))
	dual := 0
	for i, id := 0, 0; i < len(units); i++ {
		first[i] = id
		id += len(units[i])
		for _, r := range units[i] {
			if r.Dual {
				dual++
			}
		}
	}
	dups := make(chan int, dual) // sized to the number of sends: never blocks
	allDone := make(chan struct{})
	var next, completed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain := func() {
				for {
					select {
					case id := <-dups:
						do(c, id, true)
					default:
						return
					}
				}
			}
			for {
				u := int(next.Add(1)) - 1
				if u >= len(units) {
					break
				}
				for j := range units[u] {
					drain()
					if units[u][j].Dual {
						dups <- first[u] + j
					}
					do(c, first[u]+j, false)
				}
				if int(completed.Add(1)) == len(units) {
					close(allDone)
				}
			}
			for {
				select {
				case id := <-dups:
					do(c, id, true)
				case <-allDone:
					drain()
					return
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// wire is a rendered request.
type wire struct {
	method string
	target string // path and query
	body   []byte
}

// render turns a request into its HTTP form. A /verify body is the plan
// the daemon returned during preload; withVerifyBodies fills it in.
func render(r *Request) (wire, error) {
	switch r.Kind {
	case KindPlan:
		return wire{http.MethodGet, "/plan?" + query(r.Item, nil), nil}, nil
	case KindSimulate:
		extra := url.Values{"k": {strconv.Itoa(r.K)}}
		if r.Sample > 0 {
			extra.Set("sample", strconv.Itoa(r.Sample))
			extra.Set("seed", strconv.FormatInt(r.SimSeed, 10))
		}
		return wire{http.MethodGet, "/simulate?" + query(r.Item, extra), nil}, nil
	case KindBatch:
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		for _, it := range r.Items {
			if err := enc.Encode(it); err != nil {
				return wire{}, err
			}
		}
		return wire{http.MethodPost, "/plan/batch", b.Bytes()}, nil
	case KindDelta:
		body, err := json.Marshal(map[string]string{"parent": r.Parent, "delta": r.Deltas[len(r.Deltas)-1]})
		return wire{http.MethodPost, "/plan/delta", body}, err
	case KindVerify:
		return wire{http.MethodPost, "/verify", nil}, nil
	}
	return wire{}, fmt.Errorf("unknown request kind %q", r.Kind)
}

func query(it Item, extra url.Values) string {
	v := url.Values{"n": {strconv.Itoa(it.N)}, "demand": {it.Spec}}
	for k, vs := range extra {
		v[k] = vs
	}
	return v.Encode()
}

func renderAll(units []Unit) ([]wire, error) {
	reqs := flatten(units)
	out := make([]wire, len(reqs))
	for i, r := range reqs {
		w, err := render(r)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

// withVerifyBodies fills in the /verify bodies, one per preloaded item.
func withVerifyBodies(units []Unit, wires []wire, bodies map[Item][]byte) error {
	for i, r := range flatten(units) {
		if r.Kind == KindVerify {
			b, ok := bodies[r.Item]
			if !ok {
				return fmt.Errorf("no preloaded plan to verify for %v", r.Item)
			}
			wires[i].body = b
		}
	}
	return nil
}

// record is what the generator keeps of one answer while timing: no
// decoding, only a hash of the body (of each line, for a batch).
type record struct {
	id     int32
	dup    bool
	status int16 // 0: transport error
	hit    int8  // X-Cache: 1 HIT, 0 MISS, -1 absent
	lat    time.Duration
	hashes []uint64
}

// httpConn is one keep-alive HTTP/1.1 connection to the daemon. Requests
// are written and answers read on the caller's goroutine, with no
// transport goroutines in between, so the generator adds as little work
// and as few wake-ups per request as it can.
type httpConn struct {
	addr   string
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	seed   maphash.Seed
	buf    bytes.Buffer
	recs   []record
	bodies map[uint64][]byte // distinct bodies (or batch lines) by hash
	keep   bool              // record answers
}

func newConns(addr string, seed maphash.Seed) []*httpConn {
	cs := make([]*httpConn, conns)
	for i := range cs {
		cs[i] = &httpConn{addr: addr, seed: seed, bodies: map[uint64][]byte{}}
	}
	return cs
}

func closeConns(cs []*httpConn) {
	for _, c := range cs {
		c.close()
	}
}

func (c *httpConn) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// roundTrip sends one request and reads the whole answer into c.buf. A
// failed exchange closes the connection; the next request redials.
func (c *httpConn) roundTrip(w wire) (*http.Response, error) {
	c.buf.Reset()
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			return nil, err
		}
		c.conn, c.br, c.bw = conn, bufio.NewReaderSize(conn, 64<<10), bufio.NewWriter(conn)
	}
	c.conn.SetDeadline(time.Now().Add(120 * time.Second))
	fmt.Fprintf(c.bw, "%s %s HTTP/1.1\r\nHost: %s\r\n", w.method, w.target, c.addr)
	if w.body != nil {
		fmt.Fprintf(c.bw, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(w.body))
	}
	c.bw.WriteString("\r\n")
	c.bw.Write(w.body)
	err := c.bw.Flush()
	var resp *http.Response
	if err == nil {
		resp, err = http.ReadResponse(c.br, nil)
	}
	if err == nil {
		_, err = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	if err != nil || resp.Close {
		c.close()
	}
	return resp, err
}

// send issues one request and, when recording, keeps its record.
func (c *httpConn) send(id int, dup bool, w wire) {
	rec := record{id: int32(id), dup: dup, hit: -1}
	start := time.Now()
	resp, err := c.roundTrip(w)
	rec.lat = time.Since(start)
	if err == nil {
		rec.status = int16(resp.StatusCode)
		switch resp.Header.Get("X-Cache") {
		case "HIT":
			rec.hit = 1
		case "MISS":
			rec.hit = 0
		}
	}
	if !c.keep {
		return
	}
	if w.target == "/plan/batch" {
		for _, line := range bytes.Split(bytes.TrimSpace(c.buf.Bytes()), []byte{'\n'}) {
			rec.hashes = append(rec.hashes, c.store(line))
		}
	} else {
		rec.hashes = []uint64{c.store(c.buf.Bytes())}
	}
	c.recs = append(c.recs, rec)
}

func (c *httpConn) store(b []byte) uint64 {
	h := maphash.Bytes(c.seed, b)
	if _, ok := c.bodies[h]; !ok {
		c.bodies[h] = bytes.Clone(b)
	}
	return h
}

// drive runs units over the connections and returns the wall time.
func drive(cs []*httpConn, units []Unit, wires []wire, keep bool) time.Duration {
	for _, c := range cs {
		c.keep = keep
	}
	return closedLoop(units, func(conn, id int, dup bool) { cs[conn].send(id, dup, wires[id]) })
}

// collect merges the connections' records (ordered by id) and bodies.
func collect(cs []*httpConn) ([]record, map[uint64][]byte) {
	var recs []record
	bodies := map[uint64][]byte{}
	for _, c := range cs {
		recs = append(recs, c.recs...)
		for h, b := range c.bodies {
			bodies[h] = b
		}
		c.recs, c.bodies = nil, map[uint64][]byte{}
	}
	sortRecords(recs)
	return recs, bodies
}

// sortRecords orders records by request id, the duplicate copy last.
func sortRecords(recs []record) {
	slices.SortFunc(recs, func(a, b record) int {
		if a.id != b.id {
			return int(a.id - b.id)
		}
		if a.dup != b.dup {
			if a.dup {
				return 1
			}
			return -1
		}
		return 0
	})
}
