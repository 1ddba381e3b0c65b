package client

import (
	"errors"
	"sync"
	"time"
)

// Client is a concurrency-safe connection pool over one server address.
// Every call checks a connection out (dialing a new one when the pool is
// empty and the cap allows), runs the operation, and returns it, so
// goroutines fan out over independent connections without coordination.
type Client struct {
	addr        string
	dialTimeout time.Duration
	maxIdle     int

	mu     sync.Mutex
	free   []*Conn
	closed bool
}

// ClientOption configures Dial.
type ClientOption func(*Client)

// WithDialTimeout bounds each connection attempt (default: none).
func WithDialTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.dialTimeout = d }
}

// WithMaxIdle caps how many idle connections the pool retains (default
// 16); checkouts beyond the cap still dial, the surplus is just closed on
// return instead of pooled.
func WithMaxIdle(n int) ClientOption {
	return func(c *Client) { c.maxIdle = n }
}

// Dial creates a pooled client and eagerly dials one connection so a bad
// address fails here rather than on the first operation.
func Dial(addr string, opts ...ClientOption) (*Client, error) {
	cl := &Client{addr: addr, maxIdle: 16}
	for _, opt := range opts {
		opt(cl)
	}
	c, err := cl.checkout()
	if err != nil {
		return nil, err
	}
	cl.checkin(c)
	return cl, nil
}

// ErrClientClosed is returned by operations on a closed Client.
var ErrClientClosed = errors.New("client: closed")

func (cl *Client) checkout() (*Conn, error) {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil, ErrClientClosed
	}
	if n := len(cl.free); n > 0 {
		c := cl.free[n-1]
		cl.free = cl.free[:n-1]
		cl.mu.Unlock()
		return c, nil
	}
	cl.mu.Unlock()
	return DialConnTimeout(cl.addr, cl.dialTimeout)
}

func (cl *Client) checkin(c *Conn) {
	if c.Err() != nil {
		c.Close()
		return
	}
	cl.mu.Lock()
	if cl.closed || len(cl.free) >= cl.maxIdle {
		cl.mu.Unlock()
		c.Close()
		return
	}
	cl.free = append(cl.free, c)
	cl.mu.Unlock()
}

// Do checks a connection out and hands it to fn — the escape hatch for
// pipelines and batch sequences that want connection affinity. The
// connection returns to the pool afterwards unless fn broke it.
func (cl *Client) Do(fn func(*Conn) error) error {
	c, err := cl.checkout()
	if err != nil {
		return err
	}
	defer cl.checkin(c)
	return fn(c)
}

// Get looks up key on a pooled connection.
func (cl *Client) Get(key uint64) (value uint64, found bool, err error) {
	err = cl.Do(func(c *Conn) error {
		value, found, err = c.Get(key)
		return err
	})
	return value, found, err
}

// Put upserts (key, value) on a pooled connection.
func (cl *Client) Put(key, value uint64) error {
	return cl.Do(func(c *Conn) error { return c.Put(key, value) })
}

// Del removes key on a pooled connection.
func (cl *Client) Del(key uint64) (found bool, err error) {
	err = cl.Do(func(c *Conn) error {
		found, err = c.Del(key)
		return err
	})
	return found, err
}

// Stats fetches server and store statistics on a pooled connection.
func (cl *Client) Stats() (st Stats, err error) {
	err = cl.Do(func(c *Conn) error {
		st, err = c.Stats()
		return err
	})
	return st, err
}

// Close closes every pooled connection; in-flight checkouts close on
// return.
func (cl *Client) Close() error {
	cl.mu.Lock()
	free := cl.free
	cl.free = nil
	cl.closed = true
	cl.mu.Unlock()
	for _, c := range free {
		c.Close()
	}
	return nil
}
