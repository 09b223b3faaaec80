package server

import (
	"context"
	"net"
	"net/http"
	"sync"
)

// MemListener is an in-process net.Listener over synchronous pipes, so
// the server tests hold many HTTP/SSE clients open without consuming
// file descriptors or ports. Dial returns the client half of a fresh
// pipe whose server half Accept hands to the HTTP server. It sits in
// package server so that server_test sees it as server.MemListener.
type MemListener struct {
	ch     chan net.Conn
	closed chan struct{}
	once   sync.Once
}

// NewMemListener returns a ready listener.
func NewMemListener() *MemListener {
	return &MemListener{ch: make(chan net.Conn), closed: make(chan struct{})}
}

// Accept implements net.Listener.
func (l *MemListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

// Close implements net.Listener.
func (l *MemListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

// Addr implements net.Listener.
func (l *MemListener) Addr() net.Addr { return memAddr{} }

// Dial opens a client connection to the listener.
func (l *MemListener) Dial(ctx context.Context) (net.Conn, error) {
	client, srv := net.Pipe()
	select {
	case l.ch <- srv:
		return client, nil
	case <-l.closed:
		client.Close()
		srv.Close()
		return nil, net.ErrClosed
	case <-ctx.Done():
		client.Close()
		srv.Close()
		return nil, ctx.Err()
	}
}

// Client returns an http.Client that dials this listener; keep-alive
// with one idle connection means each client holds exactly one pipe.
func (l *MemListener) Client() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
				return l.Dial(ctx)
			},
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }
