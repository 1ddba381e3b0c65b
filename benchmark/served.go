package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"vmshortcut"
	"vmshortcut/client"
	"vmshortcut/server"
)

// Served workloads write value = tag(key)<<32 | version. The load writes
// version 1. A connection is the only writer of the keys it owns, and the
// server answers a connection's requests in order, so a GET of an own key
// must return exactly the version last sent before it; a GET of a foreign
// key must carry the key's tag and a version no older than the newest one
// this connection has already read.

func tag(key uint64) uint64 { return key * 0x9E3779B97F4A7C15 >> 32 }

func value(key uint64, version uint32) uint64 { return tag(key)<<32 | uint64(version) }

const (
	zipfTheta   = 0.99
	loadBatch   = 1024 // PUTs per ApplyBatch of the load: one WAL record each
	loadVersion = 1
)

// unit is the next 32 operations of one connection's stream, with what each
// reply must be.
type unit struct {
	key  [unitOps]uint64
	val  [unitOps]uint64 // PUT: the value written
	put  [unitOps]bool
	idx  [unitOps]uint64
	want [unitOps]uint32 // GET of an own key: the exact version
}

// opStream is one connection's pre-generated ops and its verifier state.
type opStream struct {
	cfg  *config
	conn int
	ops  []servedOp
	pos  int
	// ver is, per key index: for an own key the version last sent, for a
	// foreign key the newest version read so far.
	ver []uint32
}

func newOpStream(cfg *config, z *zipf, conn int, putShare float64) *opStream {
	s := &opStream{cfg: cfg, conn: conn, ver: make([]uint32, cfg.keys)}
	s.ops = servedStream(z, cfg.seed^uint64(0x30+conn), conn, cfg.streamLen, putShare)
	for i := range s.ver {
		s.ver[i] = loadVersion
	}
	return s
}

// next fills u with the stream's next unit and advances the versions of the
// keys it writes.
func (s *opStream) next(u *unit) {
	mask := len(s.ops) - 1
	for k := 0; k < unitOps; k++ {
		o := s.ops[s.pos&mask]
		s.pos++
		i := o.index()
		key := s.cfg.key(i)
		u.idx[k], u.key[k], u.put[k] = i, key, o.isPut()
		if o.isPut() {
			s.ver[i]++
			u.val[k] = value(key, s.ver[i])
		} else {
			u.want[k] = s.ver[i]
		}
	}
}

// opSink is what a unit's operations are queued into: a client pipeline or
// an operation batch.
type opSink interface {
	Get(key uint64)
	Put(key, value uint64)
}

// queue adds the unit's operations to q in order and returns how many of
// them are PUTs.
func (u *unit) queue(q opSink) (puts uint64) {
	for k := 0; k < unitOps; k++ {
		if u.put[k] {
			q.Put(u.key[k], u.val[k])
			puts++
		} else {
			q.Get(u.key[k])
		}
	}
	return puts
}

// wrong counts the replies of a flushed unit that fail check.
func (s *opStream) wrong(u *unit, res []client.Result) (n uint64) {
	for k, r := range res {
		if !s.check(u, k, r.Found, r.Value, r.Err) {
			n++
		}
	}
	return n
}

// check verifies reply k of unit u and reports whether it is correct.
func (s *opStream) check(u *unit, k int, found bool, val uint64, err error) bool {
	if err != nil || !found {
		return false
	}
	if u.put[k] {
		return true
	}
	i, got := u.idx[k], uint32(val)
	if val>>32 != tag(u.key[k]) {
		return false
	}
	if owns(s.conn, i) {
		return got == u.want[k]
	}
	if got < s.ver[i] {
		return false
	}
	s.ver[i] = got
	return true
}

// servedEnv is a two-shard Shortcut-EH store — durable or not — behind the
// server, with one client connection per stream, all in this process over
// loopback TCP.
type servedEnv struct {
	cfg     *config
	store   vmshortcut.Store
	walDir  string // "" unless durable
	srv     *server.Server
	served  chan error
	conns   []*client.Conn
	streams []*opStream
}

func setupServed(cfg *config, durable bool, putShare float64) (env, error) {
	e := &servedEnv{cfg: cfg}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	opts := []vmshortcut.Option{vmshortcut.WithShards(2)}
	if durable {
		dir, err := os.MkdirTemp(cfg.outDir, "wal-")
		if err != nil {
			return nil, err
		}
		e.walDir = dir
		opts = append(opts, vmshortcut.WithWAL(dir), vmshortcut.WithFsync(vmshortcut.FsyncAlways))
	}
	var err error
	if e.store, err = vmshortcut.Open(vmshortcut.KindShortcutEH, opts...); err != nil {
		return nil, err
	}
	if err := loadServed(cfg, e.store); err != nil {
		return nil, err
	}
	if !e.store.WaitSync(syncTimeout) {
		return nil, fmt.Errorf("shortcut not in sync %v after the load", syncTimeout)
	}
	if e.srv, err = server.New(server.Config{Store: e.store}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()
	z := newZipf(cfg.keys, zipfTheta)
	for c := 0; c < servedConns; c++ {
		conn, err := client.DialConn(ln.Addr().String())
		if err != nil {
			return nil, err
		}
		e.conns = append(e.conns, conn)
		e.streams = append(e.streams, newOpStream(cfg, z, c, putShare))
	}
	ok = true
	return e, nil
}

// loadServed writes every key at the load version through ApplyBatch.
func loadServed(cfg *config, s vmshortcut.Store) error {
	var b vmshortcut.OpBatch
	var res vmshortcut.OpResults
	for lo := 0; lo < cfg.keys; lo += loadBatch {
		b.Reset()
		for i := lo; i < lo+loadBatch && i < cfg.keys; i++ {
			key := cfg.key(uint64(i))
			b.Put(key, value(key, loadVersion))
		}
		if err := s.ApplyBatch(&b, &res); err != nil {
			return fmt.Errorf("load batch at key %d: %w", lo, err)
		}
	}
	return nil
}

func (e *servedEnv) drive(d time.Duration, tr *tracer) *window {
	total := newWindow(d, e.cfg.slice)
	wins := make([]*window, len(e.conns))
	spans := make([][]span, len(e.conns))
	var root, flushName int32
	if tr != nil {
		root = tr.begin("served", -1)
		flushName = tr.nameID("Pipeline.Flush x32")
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := range e.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := newWindow(d, e.cfg.slice)
			wins[c] = w
			p := e.conns[c].Pipeline()
			st := e.streams[c]
			var u unit
			var res []client.Result
			for time.Since(start) < d {
				st.next(&u)
				w.puts += u.queue(p)
				t0 := time.Since(start)
				var err error
				res, err = p.Flush(res[:0])
				t1 := time.Since(start)
				w.unit(t0, t1)
				if err != nil || len(res) != unitOps {
					// The connection is dead: the unit failed and
					// this client can send no more.
					fmt.Fprintf(logw, "conn %d: flush: %v\n", c, err)
					w.failed += unitOps
					return
				}
				w.failed += st.wrong(&u, res)
				if tr != nil {
					spans[c] = append(spans[c], span{name: flushName, parent: root, start: int64(t0), end: int64(t1)})
				}
			}
		}(c)
	}
	wg.Wait()
	for c, w := range wins {
		total.merge(w)
		if tr != nil {
			base := tr.spans[root].start
			for _, s := range spans[c] {
				tr.add(s.name, s.parent, base+s.start, base+s.end)
			}
		}
	}
	if tr != nil {
		tr.end(root)
	}
	total.close()
	return total
}

func (e *servedEnv) counters() counters {
	c := counters{store: e.store.Stats()}
	if st, err := e.conns[0].Stats(); err == nil {
		c.coalescedBatches, c.coalescedOps = st.Server.CoalescedBatches, st.Server.CoalescedOps
	}
	return c
}

// finish, on the durable workload, takes the crash image — a copy of the WAL
// directory made with nothing in flight, without Close and so without a
// final snapshot — closes the live store, recovers the image and checks that
// every key holds the version last acknowledged for it.
func (e *servedEnv) finish() (attempted, failed uint64, err error) {
	if e.walDir == "" {
		return 0, 0, nil
	}
	image := e.walDir + ".crash"
	defer os.RemoveAll(image)
	if err := copyDir(e.walDir, image); err != nil {
		return 0, 0, fmt.Errorf("crash image: %w", err)
	}
	if st := e.store.Stats(); st.DurableLSN < st.WALRecords {
		// Acknowledged records the log does not claim to have synced.
		failed += st.WALRecords - st.DurableLSN
	}
	if err := e.stop(); err != nil {
		return 0, failed, err
	}
	if e.cfg.tamperImage != nil {
		if err := e.cfg.tamperImage(image); err != nil {
			return 0, failed, err
		}
	}
	t := time.Now()
	s, err := vmshortcut.Open(vmshortcut.KindShortcutEH, vmshortcut.WithShards(2),
		vmshortcut.WithWAL(image), vmshortcut.WithFsync(vmshortcut.FsyncAlways))
	if err != nil {
		return 0, failed, fmt.Errorf("recover crash image: %w", err)
	}
	fmt.Fprintf(logw, "serve_durable: recovered the crash image in %.3f s\n", time.Since(t).Seconds())
	defer s.Close()
	for i := uint64(0); i < uint64(e.cfg.keys); i++ {
		key := e.cfg.key(i)
		owner := e.streams[int(i&1)]
		attempted++
		if v, ok := s.Lookup(key); !ok || v != value(key, owner.ver[i]) {
			failed++
		}
	}
	return attempted, failed, s.Close()
}

// stop shuts the server down, closes the connections and the store, and
// waits for the accept loop. It is safe to call twice.
func (e *servedEnv) stop() error {
	var errs []error
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, e.srv.Shutdown(ctx))
		cancel()
		if e.served != nil {
			errs = append(errs, <-e.served)
		}
		e.srv = nil
	}
	for _, c := range e.conns {
		c.Close()
	}
	e.conns = nil
	if e.store != nil {
		errs = append(errs, e.store.Close())
		e.store = nil
	}
	return errors.Join(errs...)
}

func (e *servedEnv) close() error {
	err := e.stop()
	if e.walDir != "" {
		os.RemoveAll(e.walDir)
	}
	return err
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.Mkdir(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
