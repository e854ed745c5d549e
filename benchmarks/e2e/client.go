package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"disc/internal/model"
)

// conn is one client connection to the server under test: a keep-alive
// loopback HTTP connection in the untraced run, direct calls of the server's
// handler (no network) in the traced run. Requests on one conn are serial.
type conn struct {
	base    string
	client  *http.Client // nil for an in-process conn
	handler http.Handler
}

// newNetConn returns a conn that owns exactly one TCP connection to base.
func newNetConn(base string) *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &conn{base: base, client: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func newInprocConn(h http.Handler) *conn { return &conn{base: "http://disc.local", handler: h} }

func (c *conn) close() {
	if c.client != nil {
		c.client.CloseIdleConnections()
	}
}

type reply struct {
	status int
	header http.Header
	body   []byte
}

// do sends one request and reads the whole response body. hdr is a flat
// list of header name/value pairs.
func (c *conn) do(method, path string, body []byte, hdr ...string) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	var req *http.Request
	if c.client == nil {
		req = httptest.NewRequest(method, c.base+path, rd)
	} else {
		var err error
		if req, err = http.NewRequest(method, c.base+path, rd); err != nil {
			return reply{}, err
		}
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	if c.client == nil {
		rec := httptest.NewRecorder()
		c.handler.ServeHTTP(rec, req)
		return reply{status: rec.Code, header: rec.Header(), body: rec.Body.Bytes()}, nil
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

// appendBatch appends the JSON wire form of pts (the POST /ingest body) to
// dst. Floats are written in the shortest form that parses back to the same
// value, so the server sees exactly the generated coordinates.
func appendBatch(dst []byte, pts []model.Point, dims int) []byte {
	dst = append(dst, '[')
	for i, p := range pts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"id":`...)
		dst = strconv.AppendInt(dst, p.ID, 10)
		dst = append(dst, `,"time":`...)
		dst = strconv.AppendInt(dst, p.Time, 10)
		dst = append(dst, `,"coords":[`...)
		for d := 0; d < dims; d++ {
			if d > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendFloat(dst, p.Pos[d], 'g', -1, 64)
		}
		dst = append(dst, `]}`...)
	}
	return append(dst, ']')
}
