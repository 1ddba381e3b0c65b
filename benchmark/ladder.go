package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"vmshortcut"
	"vmshortcut/client"
	"vmshortcut/internal/bucket"
	"vmshortcut/internal/core"
	"vmshortcut/internal/eh"
	"vmshortcut/internal/op"
	"vmshortcut/internal/pool"
	"vmshortcut/internal/sceh"
	"vmshortcut/persist"
	"vmshortcut/wal"
)

// The ladder drives one seeded uniform key stream over the same keys through
// each layer's public functions, from one goroutine, timing 4096-call chunks
// from outside. A rung's *_ns is its median chunk time per call; a *_self_ns
// is that minus the rung below — the outside-in stand-in for span self time.
// Only one rung's structure is alive at a time: two 32768-slot shortcuts do
// not fit under the default vm.max_map_count.

type ladder struct {
	cfg    *config
	tr     *tracer
	root   int32
	stream []uint32 // uniform, 2*rungChunks chunks long; scale maps a value onto the key indices
	out    map[string]float64
	failed uint64
	ops    uint64
	sink   uint64 // keeps calibration loops from being optimised away
	// loop is calib.loop_ns: what reading the stream and making the key
	// costs per call. streamRung subtracts it, so a rung is the layer alone.
	loop float64
}

// rung times cfg.rungChunks/div chunks of chunk(lo, hi), which runs the
// stream's positions [lo, hi) and returns how many answers were wrong, and
// returns the median chunk's nanoseconds per call. As many chunks again run
// first, untimed, over the other half of the stream: a structure that was
// just loaded is cold, and a workload measures it warm.
func (l *ladder) rung(name string, div int, chunk func(lo, hi int) int) float64 {
	n := max(l.cfg.rungChunks/div, 1)
	for c := 0; c < n; c++ {
		lo := (n + c) * chunkOps
		l.failed += uint64(chunk(lo, lo+chunkOps))
	}
	id := l.tr.begin(name, l.root)
	chunkName := l.tr.nameID(name + " x4096")
	times := make([]float64, n)
	for c := range times {
		lo := c * chunkOps
		t0 := l.tr.now()
		l.failed += uint64(chunk(lo, lo+chunkOps))
		t1 := l.tr.now()
		l.tr.add(chunkName, id, t0, t1)
		times[c] = float64(t1-t0) / chunkOps
	}
	l.tr.end(id)
	l.ops += 2 * uint64(n) * chunkOps
	return median(times)
}

// streamRung is rung for a chunk that reads the stream once per call.
func (l *ladder) streamRung(name string, chunk func(lo, hi int) int) float64 {
	return l.rung(name, 1, chunk) - l.loop
}

// index is the key index at stream position j.
func (l *ladder) index(j int) uint64 { return l.indexIn(j, l.cfg.keys) }

func (l *ladder) indexIn(j, keys int) uint64 { return scale(l.stream[j], uint64(keys)) }

// ---- host calibration: no repo code ----

// calib is the fixed kernel run before and after: the stream loop every rung
// contains, a dependent hash chain, and a dependent walk over 64 MiB.
type calib struct{ loop, hash, memwalk float64 }

const memwalkWords = 1 << 23

func newMemwalk(seed uint64) []uint32 {
	// Sattolo's algorithm: one cycle through every word.
	a := make([]uint32, memwalkWords)
	for i := range a {
		a[i] = uint32(i)
	}
	r := rng{seed: seed}
	for i := len(a) - 1; i > 0; i-- {
		j := r.next() % uint64(i)
		a[i], a[j] = a[j], a[i]
	}
	return a
}

// loopRung times the stream loop every rung contains: calib.loop_ns.
func (l *ladder) loopRung(when string) float64 {
	return l.rung("calib.loop "+when, 1, func(lo, hi int) int {
		x := l.sink
		for j := lo; j < hi; j++ {
			x ^= l.cfg.key(l.index(j))
		}
		l.sink = x
		return 0
	})
}

func (l *ladder) calibrate(walk []uint32, when string) calib {
	c := calib{loop: l.loopRung(when)}
	c.hash = l.rung("calib.hash "+when, 1, func(lo, hi int) int {
		x := l.sink
		for j := lo; j < hi; j++ {
			x = splitmix64(x, uint64(j))
		}
		l.sink = x
		return 0
	})
	c.memwalk = l.rung("calib.memwalk "+when, 1, func(lo, hi int) int {
		p := uint32(l.sink) % memwalkWords
		for j := lo; j < hi; j++ {
			p = walk[p]
		}
		l.sink = uint64(p)
		return 0
	})
	return c
}

func drift(a, b calib) float64 {
	rel := func(x, y float64) float64 { return math.Abs(y-x) / x * 100 }
	return max(rel(a.loop, b.loop), rel(a.hash, b.hash), rel(a.memwalk, b.memwalk))
}

// ---- rungs ----

// nodes: paper Fig. 2. A traditional and a shortcut inner node over the
// same leaves, two slots per leaf like the loaded directory's fan-in.
func (l *ladder) nodes() error {
	slots := l.cfg.nodeSlots
	p, err := pool.New(pool.Config{})
	if err != nil {
		return err
	}
	defer p.Close()
	leaves, err := p.AllocN(slots / 2)
	if err != nil {
		return err
	}
	for i, ref := range leaves {
		page := p.Page(ref)
		for off := 0; off < len(page); off += 8 {
			binary.LittleEndian.PutUint64(page[off:], uint64(i))
		}
	}
	trad := core.NewTraditional(p, slots)
	for i := 0; i < slots; i++ {
		trad.Set(i, leaves[i/2])
	}
	sc, err := core.NewShortcut(p, slots)
	if err != nil {
		return err
	}
	defer sc.Close()
	if _, err := sc.SetFromTraditional(trad, true); err != nil {
		return err
	}
	words := uint32(p.PageSize()/8 - 1)
	probe := func(leaf func(int) []byte) func(lo, hi int) int {
		return func(lo, hi int) (bad int) {
			for j := lo; j < hi; j++ {
				u := l.stream[j]
				slot := int(scale(u, uint64(slots)))
				if binary.LittleEndian.Uint64(leaf(slot)[(u&words)*8:]) != uint64(slot/2) {
					bad++
				}
			}
			return bad
		}
	}
	l.out["core.trad_leaf_ns"] = l.streamRung("core.Traditional.Leaf", probe(trad.Leaf))
	l.out["core.shortcut_leaf_ns"] = l.streamRung("core.Shortcut.Leaf", probe(sc.Leaf))
	return sc.Close()
}

// tables: the bucket probe alone, extendible hashing, and Shortcut-EH, each
// loaded with every key.
func (l *ladder) tables() error {
	cfg := l.cfg
	p, err := pool.New(pool.Config{})
	if err != nil {
		return err
	}
	defer p.Close()
	t, err := eh.New(p, eh.Config{})
	if err != nil {
		return err
	}
	for i := uint64(0); i < uint64(cfg.keys); i++ {
		if err := t.Insert(cfg.key(i), i); err != nil {
			return err
		}
	}
	// The bucket rungs go straight to the page: the directory is resolved
	// here, outside the timed loop.
	addrs := make([]uintptr, len(l.stream))
	for j := range addrs {
		addrs[j] = t.DirAddr(t.SlotOf(cfg.key(l.index(j))))
	}
	l.out["bucket.get_ns"] = l.streamRung("bucket.Lookup", func(lo, hi int) (bad int) {
		for j := lo; j < hi; j++ {
			i := l.index(j)
			if v, ok := bucket.ViewAddr(addrs[j]).Lookup(cfg.key(i)); !ok || v != i {
				bad++
			}
		}
		return bad
	})
	l.out["bucket.put_ns"] = l.streamRung("bucket.Insert", func(lo, hi int) (bad int) {
		for j := lo; j < hi; j++ {
			i := l.index(j)
			if !bucket.ViewAddr(addrs[j]).Insert(cfg.key(i), i) {
				bad++
			}
		}
		return bad
	})
	l.out["eh.get_ns"] = l.streamRung("eh.Lookup", getRung(l, cfg.keys, t.Lookup))
	l.out["eh.put_ns"] = l.streamRung("eh.Insert", putRung(l, cfg.keys, t.Insert))
	if err := p.Close(); err != nil {
		return err
	}

	for _, size := range []struct {
		keys     int
		get, put string
	}{{cfg.keys, "sceh.get_ns", "sceh.put_ns"}, {cfg.fitKeys, "sceh.get_fit_ns", ""}} {
		if err := l.shortcutTable(size.keys, size.get, size.put); err != nil {
			return err
		}
	}
	l.out["sceh.get_vs_eh_ratio"] = l.out["sceh.get_ns"] / l.out["eh.get_ns"]
	return nil
}

func (l *ladder) shortcutTable(keys int, get, put string) error {
	cfg := l.cfg
	p, err := pool.New(pool.Config{})
	if err != nil {
		return err
	}
	defer p.Close()
	t, err := sceh.New(p, sceh.Config{})
	if err != nil {
		return err
	}
	defer t.Close()
	for i := uint64(0); i < uint64(keys); i++ {
		if err := t.Insert(cfg.key(i), i); err != nil {
			return err
		}
	}
	if !t.WaitSync(syncTimeout) {
		return fmt.Errorf("sceh: not in sync %v after loading %d keys", syncTimeout, keys)
	}
	l.out[get] = l.streamRung(fmt.Sprintf("sceh.Lookup %d keys", keys), getRung(l, keys, t.Lookup))
	if put != "" {
		l.out[put] = l.streamRung("sceh.Insert", putRung(l, keys, t.Insert))
	}
	if st := t.Stats(); st.TraditionalLookups > 0 {
		return fmt.Errorf("sceh: %d of the rung's lookups bypassed the shortcut", st.TraditionalLookups)
	}
	if err := t.Close(); err != nil {
		return err
	}
	return p.Close()
}

// getRung and putRung are the rung bodies shared by every layer that offers
// Lookup and Insert: hit lookups that check the value, and updates of
// existing keys that rewrite the value already there.
func getRung(l *ladder, keys int, lookup func(uint64) (uint64, bool)) func(lo, hi int) int {
	return func(lo, hi int) (bad int) {
		for j := lo; j < hi; j++ {
			i := l.indexIn(j, keys)
			if v, ok := lookup(l.cfg.key(i)); !ok || v != i {
				bad++
			}
		}
		return bad
	}
}

func putRung(l *ladder, keys int, insert func(k, v uint64) error) func(lo, hi int) int {
	return func(lo, hi int) (bad int) {
		for j := lo; j < hi; j++ {
			i := l.indexIn(j, keys)
			if insert(l.cfg.key(i), i) != nil {
				bad++
			}
		}
		return bad
	}
}

// stores: the Store wrappers, outside in. Each rung's self time is its
// time minus the rung below; sceh is the rung below the plain store.
func (l *ladder) stores() error {
	walDir, err := os.MkdirTemp(l.cfg.outDir, "wal-ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	below := [2]float64{l.out["sceh.get_ns"], l.out["sceh.put_ns"]}
	for _, r := range []struct {
		layer string
		opts  []vmshortcut.Option
	}{
		{"store", nil},
		{"locked", []vmshortcut.Option{vmshortcut.WithConcurrency(true)}},
		{"sharded", []vmshortcut.Option{vmshortcut.WithShards(2)}},
		{"durable", []vmshortcut.Option{vmshortcut.WithShards(2), vmshortcut.WithWAL(walDir), vmshortcut.WithFsync(vmshortcut.FsyncOff)}},
	} {
		if below, err = l.storeRung(r.layer, below, r.opts); err != nil {
			return fmt.Errorf("%s rung: %w", r.layer, err)
		}
	}
	return nil
}

// storeRung measures one wrapper's GET and PUT rungs and returns their
// times, the next rung's "below".
func (l *ladder) storeRung(layer string, below [2]float64, opts []vmshortcut.Option) ([2]float64, error) {
	cfg := l.cfg
	s, err := vmshortcut.Open(vmshortcut.KindShortcutEH, opts...)
	if err != nil {
		return below, err
	}
	defer s.Close()
	// Loaded like the tables below and like index_lookup: one Insert per
	// key, so that a self time compares equal structures.
	for i := uint64(0); i < uint64(cfg.keys); i++ {
		if err := s.Insert(cfg.key(i), i); err != nil {
			return below, err
		}
	}
	if !s.WaitSync(syncTimeout) {
		return below, fmt.Errorf("not in sync %v after the load", syncTimeout)
	}
	get := l.streamRung(layer+" Store.Lookup", getRung(l, cfg.keys, s.Lookup))
	put := l.streamRung(layer+" Store.Insert", putRung(l, cfg.keys, s.Insert))
	l.out[layer+".get_self_ns"] = get - below[0]
	l.out[layer+".put_self_ns"] = put - below[1]
	switch layer {
	case "store":
		l.out["store.get_ns"] = get
	case "sharded":
		// What the server calls: one ApplyBatch per 32 GETs.
		var b vmshortcut.OpBatch
		var res vmshortcut.OpResults
		l.out["sharded.apply32_get_ns_per_op"] = l.streamRung("sharded Store.ApplyBatch 32 GETs", func(lo, hi int) (bad int) {
			for u := lo; u < hi; u += unitOps {
				b.Reset()
				for j := u; j < u+unitOps; j++ {
					b.Get(cfg.key(l.index(j)))
				}
				if err := s.ApplyBatch(&b, &res); err != nil {
					bad += unitOps
					continue
				}
				for k := 0; k < unitOps; k++ {
					if !res.Found[k] || res.Vals[k] != l.index(u+k) {
						bad++
					}
				}
			}
			return bad
		})
	}
	return [2]float64{get, put}, s.Close()
}

// mixedBatch builds the 32-op half-GET half-PUT batch of the codec and WAL
// rungs from the stream's positions [lo, lo+32).
func (l *ladder) mixedBatch(b *op.Batch, lo int) {
	b.Reset()
	for j := lo; j < lo+unitOps; j++ {
		i := l.index(j)
		if j&1 == 0 {
			b.Get(l.cfg.key(i))
		} else {
			b.Put(l.cfg.key(i), i)
		}
	}
}

// log: the batch codec and the write-ahead log on their own.
func (l *ladder) log() error {
	var b, decoded op.Batch
	var payload []byte
	l.out["op.encode_ns_per_batch"] = l.rung("op.AppendMixedPayload", 1, func(lo, hi int) int {
		l.mixedBatch(&b, lo)
		for j := lo; j < hi; j++ {
			payload = b.AppendMixedPayload(payload[:0])
		}
		return 0
	})
	l.out["op.decode_ns_per_batch"] = l.rung("op.DecodePayload", 1, func(lo, hi int) (bad int) {
		for j := lo; j < hi; j++ {
			if op.DecodePayload(op.CodeMixedBatch, payload, &decoded) != nil || decoded.Len() != unitOps {
				bad++
			}
		}
		return bad
	})

	dir, err := os.MkdirTemp(l.cfg.outDir, "wal-ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, err := wal.Open(dir, wal.Options{Mode: wal.FsyncOff}, nil)
	if err != nil {
		return err
	}
	defer w.Close()
	// A 32nd of the chunks: a chunk appends 4096 records of about 400 B.
	l.out["wal.append_ns_per_rec"] = l.rung("wal.AppendBatch", 32, func(lo, hi int) (bad int) {
		for j := lo; j < hi; j++ {
			if _, err := w.AppendBatch(op.CodeMixedBatch, payload); err != nil {
				bad++
			}
		}
		return bad
	})
	id := l.tr.begin("wal.Sync after each append", l.root)
	syncName := l.tr.nameID("wal.Sync")
	syncs := make([]float64, l.cfg.syncs)
	for i := range syncs {
		if _, err := w.AppendBatch(op.CodeMixedBatch, payload); err != nil {
			return err
		}
		t0 := l.tr.now()
		if err := w.Sync(); err != nil {
			return err
		}
		t1 := l.tr.now()
		l.tr.add(syncName, id, t0, t1)
		syncs[i] = float64(t1-t0) / 1e3
	}
	l.tr.end(id)
	sort.Float64s(syncs)
	l.out["wal.fsync_p50_us"] = syncs[len(syncs)/2]
	l.out["wal.fsync_p99_us"] = syncs[len(syncs)*99/100]
	return w.Close()
}

// maintenance: one index_waves cycle that waits for the shortcut after each
// insert burst, so that the wait on the mapper is timed on its own.
func (l *ladder) maintenance() error {
	cfg := l.cfg
	e := &wavesEnv{cfg: cfg, stream: l.stream}
	c, err := e.cycle(true, l.tr, l.root)
	if err != nil {
		return err
	}
	l.failed += c.failed
	l.ops += cfg.opsPerCycle()
	inserts := float64(cfg.waves * cfg.waveInserts)
	l.out["sceh.insert_ns"] = float64(c.insert) / inserts
	l.out["sceh.wave_lookup_ns"] = float64(c.lookup) / float64(cfg.waves*cfg.waveLookups)
	l.out["sceh.resync_ms"] = float64(c.resync) / 1e6
	l.out["sceh.remaps_per_kinsert"] = float64(c.stats.Remaps) / inserts * 1e3
	l.out["sceh.superseded_share"] = ratio(c.stats.UpdatesSuperseded, c.stats.UpdatesSuperseded+c.stats.UpdatesApplied)
	l.out["eh.structural_mods"] = float64(c.stats.StructuralMods)
	return nil
}

// ratio is a/b, and 0 when nothing was counted.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// serving: serve_read's stack, idle, driven by one connection — the floor
// of a round trip and what the wire adds to a 32-op batch.
func (l *ladder) serving() error {
	en, err := setupServed(l.cfg, false, 0.05)
	if err != nil {
		return err
	}
	e := en.(*servedEnv)
	defer e.close()
	conn, st := e.conns[0], e.streams[0]
	n := l.cfg.rungChunks * chunkUnits / 8 // round trips, and batches, timed

	id := l.tr.begin("server depth-1 Get", l.root)
	name := l.tr.nameID("Conn.Get")
	rtts := make([]float64, n)
	for r := range rtts {
		i := l.index(r)
		key := l.cfg.key(i)
		t0 := l.tr.now()
		v, ok, err := conn.Get(key)
		t1 := l.tr.now()
		l.tr.add(name, id, t0, t1)
		if err != nil || !ok || v>>32 != tag(key) {
			l.failed++
		}
		rtts[r] = float64(t1-t0) / 1e3
	}
	l.tr.end(id)
	l.ops += uint64(n)
	l.out["server.rtt1_us"] = median(rtts)

	// The same units, first over the wire, then replayed in-process.
	var u unit
	p := conn.Pipeline()
	var res []client.Result
	id = l.tr.begin("server depth-32 flush", l.root)
	name = l.tr.nameID("Pipeline.Flush x32")
	start := st.pos
	for r := range rtts {
		st.next(&u)
		u.queue(p)
		t0 := l.tr.now()
		res, err = p.Flush(res[:0])
		t1 := l.tr.now()
		l.tr.add(name, id, t0, t1)
		if err != nil || len(res) != unitOps {
			return fmt.Errorf("flush: %v", err)
		}
		l.failed += st.wrong(&u, res)
		rtts[r] = float64(t1-t0) / 1e3
	}
	l.tr.end(id)
	l.out["server.rtt32_us"] = median(rtts)

	var b vmshortcut.OpBatch
	var out vmshortcut.OpResults
	id = l.tr.begin("sharded ApplyBatch x32", l.root)
	name = l.tr.nameID("Store.ApplyBatch x32")
	st.pos = start // the versions only grow, so the replay stays valid
	for r := range rtts {
		st.next(&u)
		t0 := l.tr.now()
		b.Reset()
		u.queue(&b)
		err := e.store.ApplyBatch(&b, &out)
		t1 := l.tr.now()
		l.tr.add(name, id, t0, t1)
		if err != nil {
			return fmt.Errorf("ApplyBatch: %w", err)
		}
		for k := 0; k < unitOps; k++ {
			if !st.check(&u, k, out.Found[k], out.Vals[k], nil) {
				l.failed++
			}
		}
		rtts[r] = float64(t1-t0) / 1e3
	}
	l.tr.end(id)
	l.ops += 2 * uint64(n) * unitOps
	l.out["sharded.apply32_us"] = median(rtts)
	l.out["server.overhead_us"] = l.out["server.rtt32_us"] - l.out["sharded.apply32_us"]
	return e.close()
}

// durability: recovery of a fixed log — the load's records plus 32-op
// half-PUT batches, closed without a snapshot, so that Open replays all of
// it — and the snapshot layer.
func (l *ladder) durability() error {
	cfg := l.cfg
	dir, err := os.MkdirTemp(cfg.outDir, "wal-ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	open := func() (vmshortcut.Store, error) {
		return vmshortcut.Open(vmshortcut.KindShortcutEH, vmshortcut.WithShards(2),
			vmshortcut.WithWAL(dir), vmshortcut.WithFsync(vmshortcut.FsyncOff))
	}
	s, err := open()
	if err != nil {
		return err
	}
	defer s.Close()
	if err := loadServed(cfg, s); err != nil {
		return err
	}
	st := newOpStream(cfg, newZipf(cfg.keys, zipfTheta), 0, 0.5)
	var u unit
	var b vmshortcut.OpBatch
	var res vmshortcut.OpResults
	for r := 0; r < cfg.logRecords; r++ {
		st.next(&u)
		b.Reset()
		u.queue(&b)
		if err := s.ApplyBatch(&b, &res); err != nil {
			return err
		}
	}
	records := s.Stats().WALRecords
	if err := s.Close(); err != nil {
		return err
	}
	id := l.tr.begin("durable Open replaying the log", l.root)
	t := time.Now()
	rec, err := open()
	took := time.Since(t)
	l.tr.end(id)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	defer rec.Close()
	for i := uint64(0); i < uint64(cfg.keys); i++ {
		key := cfg.key(i)
		if v, ok := rec.Lookup(key); !ok || v != value(key, st.ver[i]) {
			l.failed++
		}
	}
	l.ops += uint64(cfg.keys)
	l.out["recovery_s"] = took.Seconds()
	l.out["durable.replay_rec_per_s"] = float64(records) / took.Seconds()

	// Snapshot the recovered store to a file, restore it into a plain one.
	path := filepath.Join(cfg.outDir, filepath.Base(dir)+".snap")
	defer os.Remove(path)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	id = l.tr.begin("persist.Snapshot", l.root)
	t = time.Now()
	if err := persist.Snapshot(f, rec); err != nil {
		return err
	}
	took = time.Since(t)
	l.tr.end(id)
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	size := float64(fi.Size()) / (1 << 20)
	l.out["persist.snapshot_mb_per_s"] = size / took.Seconds()
	if err := rec.Close(); err != nil {
		return err
	}
	if _, err := f.Seek(0, 0); err != nil {
		return err
	}
	plain, err := openIndex()
	if err != nil {
		return err
	}
	defer plain.Close()
	id = l.tr.begin("persist.Restore", l.root)
	t = time.Now()
	n, err := persist.Restore(bufio.NewReaderSize(f, 1<<20), func(keys, values []uint64) error {
		b.Reset()
		for k := range keys {
			b.Put(keys[k], values[k])
		}
		return plain.ApplyBatch(&b, &res)
	})
	took = time.Since(t)
	l.tr.end(id)
	if err != nil {
		return err
	}
	if n != uint64(cfg.keys) {
		l.failed += uint64(cfg.keys) - n
	}
	l.out["persist.restore_mb_per_s"] = size / took.Seconds()
	return plain.Close()
}

// run measures every section of the ladder.
func (l *ladder) run() error {
	for _, section := range []func() error{l.nodes, l.tables, l.stores, l.log, l.maintenance, l.serving, l.durability} {
		if err := section(); err != nil {
			return err
		}
	}
	return nil
}
