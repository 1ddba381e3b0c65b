package server

// Internal-package benchmark for the serve path: drives the connState
// handlers directly (no sockets), so -benchmem measures exactly the
// per-request work. The instr=off/instr=on pair is the observability
// layer's zero-allocation acceptance gate — instrumentation must add
// recording work, never allocation.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"vmshortcut"
	"vmshortcut/internal/obs"
	"vmshortcut/internal/wire"
)

// benchAddr satisfies net.Conn just enough for the handlers (RemoteAddr
// for the slow-op log path, deadlines for the coalescer).
type benchConn struct{ net.Conn }

type benchAddr struct{}

func (benchAddr) Network() string { return "bench" }
func (benchAddr) String() string  { return "bench" }

func (benchConn) RemoteAddr() net.Addr            { return benchAddr{} }
func (benchConn) SetReadDeadline(time.Time) error { return nil }
func (benchConn) Read([]byte) (int, error)        { return 0, io.EOF }
func (benchConn) Write(p []byte) (int, error)     { return len(p), nil }
func (benchConn) Close() error                    { return nil }

func newBenchState(b *testing.B, instr bool) *connState {
	store, err := vmshortcut.Open(vmshortcut.KindShortcutEH)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { store.Close() })
	cfg := Config{Store: store}
	if instr {
		cfg.Metrics = NewMetrics(obs.NewRegistry())
		cfg.SlowOp = 10 * time.Second // never fires in-process
	}
	srv, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	st := &connState{
		srv:   srv,
		c:     benchConn{},
		br:    bufio.NewReader(bytes.NewReader(nil)),
		bw:    bufio.NewWriter(io.Discard),
		instr: srv.metrics != nil,
	}
	if st.instr {
		st.batch.SetTrace(&st.trace)
	}
	return st
}

// serveOne runs one loop iteration's worth of handler work for a
// single-op frame, mirroring serveConn's sequence (minus the blocking
// read); singles counts the batch's frames itself.
func serveOne(b *testing.B, st *connState, tag byte, payload []byte) {
	if st.instr {
		st.start = time.Now()
		st.trace.Reset()
		st.traced = false
	}
	st.resp = st.resp[:0]
	if err := st.singles(tag, payload); err != nil {
		b.Fatal(err)
	}
	var wstart time.Time
	if st.instr {
		wstart = time.Now()
	}
	st.bw.Write(st.resp)
	st.bw.Flush()
	if st.instr && st.traced {
		st.trace.Set(obs.StageReplyWrite, time.Since(wstart))
		st.trace.Set(obs.StageTotal, time.Since(st.start))
		st.srv.finishBatch(st)
	}
}

// BenchmarkServe measures per-request serve-path cost with and without
// instrumentation, for a lone PUT frame and for a pipelined run of 32
// single-op frames that the coalescer gathers into one batch. Compare
// allocs/op between the instr=off and instr=on variants: the
// observability layer must not add any.
func BenchmarkServe(b *testing.B) {
	var putPayload [16]byte
	first, rest := buildPipelinedRun()
	src := bytes.NewReader(nil)
	for _, mode := range []struct {
		name  string
		instr bool
	}{{"instr=off", false}, {"instr=on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.Run("put", func(b *testing.B) {
				st := newBenchState(b, mode.instr)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					binary.LittleEndian.PutUint64(putPayload[:], uint64(i)%4096)
					binary.LittleEndian.PutUint64(putPayload[8:], uint64(i))
					serveOne(b, st, wire.OpPut, putPayload[:])
				}
			})
			b.Run("pipelined32", func(b *testing.B) {
				st := newBenchState(b, mode.instr)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// The first frame has been read; the other 31 wait
					// in the connection's buffer.
					src.Reset(rest)
					st.br.Reset(src)
					st.br.Peek(len(rest))
					serveOne(b, st, wire.OpGet, first)
					if n := st.batch.Len(); n != 32 {
						b.Fatalf("coalesced %d ops, want 32", n)
					}
				}
			})
		})
	}
}

// buildPipelinedRun encodes 32 single-op frames (16 GETs interleaved with
// 16 PUTs) the way the wire client does, and returns the first frame's
// payload and the other 31 frames.
func buildPipelinedRun() (first, rest []byte) {
	var frames []byte
	for i := uint64(0); i < 16; i++ {
		frames = wire.AppendKey(frames, wire.OpGet, i)
		frames = wire.AppendPut(frames, i, i*3)
	}
	return frames[wire.HeaderSize : wire.HeaderSize+8], frames[wire.HeaderSize+8:]
}
