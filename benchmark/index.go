package main

import (
	"fmt"
	"time"

	"vmshortcut"
)

// params are the sizes of a run. They are constants of the benchmark, not
// flags: full is what BENCHMARK.json measures, and the tests pass a small
// set so that they run in seconds.
type params struct {
	keys int // key space; a power of two
	// dirSlots is the total DirectorySlots a loaded store must report
	// (0: unchecked). More would exceed the default vm.max_map_count.
	dirSlots int
	// index_waves: waves per cycle, fresh inserts and hit lookups per wave.
	waves, waveInserts, waveLookups int
	nodeSlots                       int // slots of the ladder's inner nodes
	streamLen                       int // pre-generated op stream; a power of two
	fitKeys                         int // the ladder's "fits in cache" size
	rungChunks                      int // 4096-call chunks timed per ladder rung
	logRecords                      int // 32-op records in the ladder's recovery log
	syncs                           int // fsyncs timed by the ladder
	warmup, slice                   time.Duration
	setups                          int // set-ups per run; setup_s is their median
}

var full = params{
	keys:        1 << 20,
	dirSlots:    1 << 15,
	waves:       8,
	waveInserts: 1 << 17,
	waveLookups: 1 << 21,
	nodeSlots:   1 << 15,
	streamLen:   1 << 22,
	fitKeys:     1 << 15,
	rungChunks:  512,
	logRecords:  1 << 15,
	syncs:       1024,
	warmup:      2 * time.Second,
	slice:       time.Second,
	setups:      3,
}

// config is one invocation: the sizes plus what the command line chose.
type config struct {
	params
	seed   uint64
	outDir string // trace files and WAL directories; inside the checkout
	// Set only by the verifier's self-tests: afterSetup may damage the
	// loaded store, tamperImage serve_durable's crash image before it is
	// recovered. Both must make the run fail.
	afterSetup  func(e env)
	tamperImage func(dir string) error
}

func (c *config) key(i uint64) uint64 { return splitmix64(c.seed, i) }

const syncTimeout = 30 * time.Second

// openIndex opens the paper's index as index_lookup and index_waves use it.
func openIndex() (vmshortcut.Store, error) {
	return vmshortcut.Open(vmshortcut.KindShortcutEH)
}

// ---- index_lookup ----

// lookupEnv is a plain Shortcut-EH store loaded with every key, value = key
// index, in sync, and a uniform stream of key indices to look up.
type lookupEnv struct {
	cfg    *config
	s      vmshortcut.Store
	stream []uint32
	pos    int
}

func setupLookup(cfg *config) (env, error) {
	s, err := openIndex()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < uint64(cfg.keys); i++ {
		if err := s.Insert(cfg.key(i), i); err != nil {
			s.Close()
			return nil, fmt.Errorf("load key %d: %w", i, err)
		}
	}
	if !s.WaitSync(syncTimeout) {
		s.Close()
		return nil, fmt.Errorf("shortcut not in sync %v after the load", syncTimeout)
	}
	return &lookupEnv{cfg: cfg, s: s, stream: uniformStream(cfg.seed^0x10, cfg.streamLen)}, nil
}

func (e *lookupEnv) drive(d time.Duration, tr *tracer) *window {
	w := newWindow(d, e.cfg.slice)
	n, mask := uint64(e.cfg.keys), len(e.stream)-1
	var root, chunkName int32
	if tr != nil {
		root = tr.begin("index_lookup", -1)
		chunkName = tr.nameID("store.Lookup x4096")
		defer tr.end(root)
	}
	start := time.Now()
	var last time.Duration
	for last < d {
		chunkStart := last
		for u := 0; u < chunkUnits; u++ {
			for k := 0; k < unitOps; k++ {
				i := scale(e.stream[e.pos&mask], n)
				e.pos++
				if v, ok := e.s.Lookup(e.cfg.key(i)); !ok || v != i {
					w.failed++
				}
			}
			now := time.Since(start)
			w.unit(last, now)
			last = now
		}
		if tr != nil {
			base := tr.spans[root].start
			tr.add(chunkName, root, base+int64(chunkStart), base+int64(last))
		}
	}
	w.close()
	return w
}

func (e *lookupEnv) counters() counters { return counters{store: e.s.Stats()} }

func (e *lookupEnv) finish() (uint64, uint64, error) { return 0, 0, nil }

func (e *lookupEnv) close() error { return e.s.Close() }

// ---- index_waves ----

// wavesEnv runs identical cycles, each on a fresh plain Shortcut-EH store:
// waves of fresh inserts, each followed by hit lookups over everything
// inserted so far, then Close.
type wavesEnv struct {
	cfg    *config
	stream []uint32
	// sum accumulates the end-of-cycle Stats of every store closed so far.
	sum vmshortcut.Stats
}

func setupWaves(cfg *config) (env, error) {
	e := &wavesEnv{cfg: cfg, stream: uniformStream(cfg.seed^0x20, cfg.streamLen)}
	// The first cycle is part of set-up: it is the cold one, which grows
	// the pool file and the heap that later cycles reuse.
	c, err := e.cycle(false, nil, -1)
	if err != nil {
		return nil, err
	}
	if c.failed > 0 {
		return nil, fmt.Errorf("%d wrong answers in the first cycle", c.failed)
	}
	return e, nil
}

// cycleResult is what one cycle measured.
type cycleResult struct {
	total, insert, lookup, resync time.Duration
	rtt                           hist
	failed                        uint64
	stats                         vmshortcut.Stats // just before Close
}

func (c *config) opsPerCycle() uint64 {
	return uint64(c.waves) * uint64(c.waveInserts+c.waveLookups)
}

// cycle runs one cycle. With resync, it waits for the shortcut after each
// insert burst and times the wait: the ladder's maintenance rung.
func (e *wavesEnv) cycle(resync bool, tr *tracer, parent int32) (*cycleResult, error) {
	cfg := e.cfg
	r := &cycleResult{}
	var cyc int32
	if tr != nil {
		cyc = tr.begin("cycle", parent)
		defer tr.end(cyc)
	}
	start := time.Now()
	// phase times body, which runs n operations in 32-op units, records
	// every unit's time and a span, and returns the phase's duration.
	phase := func(name string, n int, body func()) time.Duration {
		from := time.Since(start)
		last := from
		for u := 0; u < n; u += unitOps {
			body()
			now := time.Since(start)
			r.rtt.record(int64(now - last))
			last = now
		}
		if tr != nil {
			base := tr.spans[cyc].start
			tr.add(tr.nameID(name), cyc, base+int64(from), base+int64(last))
		}
		return last - from
	}
	s, err := openIndex()
	if err != nil {
		return nil, err
	}
	defer s.Close()
	mask, pos := len(e.stream)-1, 0
	next := uint64(0) // the next fresh key index
	for w := 0; w < cfg.waves; w++ {
		r.insert += phase("store.Insert burst", cfg.waveInserts, func() {
			for k := 0; k < unitOps; k++ {
				if s.Insert(cfg.key(next), next) != nil {
					r.failed++
				}
				next++
			}
		})
		if resync {
			ok := true
			r.resync += phase("store.WaitSync", unitOps, func() { ok = s.WaitSync(syncTimeout) })
			if !ok {
				return nil, fmt.Errorf("shortcut not in sync %v after wave %d", syncTimeout, w)
			}
		}
		r.lookup += phase("store.Lookup wave", cfg.waveLookups, func() {
			for k := 0; k < unitOps; k++ {
				i := scale(e.stream[pos&mask], next)
				pos++
				if v, ok := s.Lookup(cfg.key(i)); !ok || v != i {
					r.failed++
				}
			}
		})
	}
	r.stats = s.Stats()
	if err := s.Close(); err != nil {
		return nil, err
	}
	r.total = time.Since(start)
	addStats(&e.sum, r.stats)
	return r, nil
}

// addStats accumulates the counters the traced run reports as deltas; the
// shape fields keep the latest store's values.
func addStats(sum *vmshortcut.Stats, s vmshortcut.Stats) {
	shortcut, trad := sum.ShortcutLookups+s.ShortcutLookups, sum.TraditionalLookups+s.TraditionalLookups
	*sum = s
	sum.ShortcutLookups, sum.TraditionalLookups = shortcut, trad
}

// drive's slices are whole cycles: a cycle's phases differ, so a fixed-length
// slice of it would measure which phase it caught.
func (e *wavesEnv) drive(d time.Duration, tr *tracer) *window {
	w := &window{}
	perCycle := e.cfg.opsPerCycle()
	var root int32 = -1
	if tr != nil {
		root = tr.begin("index_waves", -1)
		defer tr.end(root)
	}
	for start := time.Now(); time.Since(start) < d; {
		c, err := e.cycle(false, tr, root)
		if err != nil {
			// A cycle that cannot run has failed all of its operations.
			fmt.Fprintln(logw, "index_waves:", err)
			w.ops += perCycle
			w.failed += perCycle
			return w
		}
		w.addSlice(perCycle, c.total, &c.rtt)
		w.failed += c.failed
	}
	return w
}

func (e *wavesEnv) counters() counters { return counters{store: e.sum} }

func (e *wavesEnv) finish() (uint64, uint64, error) { return 0, 0, nil }

func (e *wavesEnv) close() error { return nil }
