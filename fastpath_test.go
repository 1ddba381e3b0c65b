package vmshortcut

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vmshortcut/internal/obs"
	"vmshortcut/internal/op"
)

// applyGets drives one pure-GET batch through ApplyBatch, the serve
// path the fast path fronts.
func applyGets(t *testing.T, s Store, b *op.Batch, res *op.Results, keys ...uint64) {
	t.Helper()
	b.Reset()
	for _, k := range keys {
		b.Get(k)
	}
	if err := s.ApplyBatch(b, res); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
}

func TestHTIKeepsLockedPath(t *testing.T) {
	// KindHTI reads migrate entries: readSafe is off, and every GET must
	// be served under the lock.
	s, err := Open(KindHTI, WithConcurrency(true))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := uint64(0); i < 32; i++ {
		if err := s.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	var b op.Batch
	var res op.Results
	for round := 0; round < 5; round++ {
		applyGets(t, s, &b, &res, 1, 2, 3)
	}
	st := s.Stats()
	if st.FastpathSeqlockReads != 0 {
		t.Fatalf("KindHTI took a lock-free path: %+v", st)
	}
	if st.FastpathLockedReads == 0 {
		t.Fatalf("KindHTI locked GETs not counted: %+v", st)
	}
}

// TestFastpathNeverServesStaleReads is the linearizability spot-check
// for the seqlock validation: writers hammer overwrites into a two-shard
// store while readers sit on the seqlock path, and every read must
// observe a value at least as new as the last overwrite the writer had
// acknowledged before the read began. Values per key are monotonically
// increasing, so "stale after ack" is a single compare. Under -race the
// seqlock pass is compiled out, so there it checks the locked path.
func TestFastpathNeverServesStaleReads(t *testing.T) {
	s, err := Open(KindHT, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const keys = 16
	var acked [keys]atomic.Uint64 // floor: highest value acked per key
	for k := uint64(0); k < keys; k++ {
		if err := s.Insert(k, 1); err != nil {
			t.Fatal(err)
		}
		acked[k].Store(1)
	}

	deadline := time.Now().Add(500 * time.Millisecond)
	if testing.Short() {
		deadline = time.Now().Add(100 * time.Millisecond)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// One writer per key parity, overwriting with increasing values.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var b op.Batch
			var res op.Results
			for v := uint64(2); time.Now().Before(deadline); v++ {
				for k := uint64(w); k < keys; k += 2 {
					b.Reset()
					b.Put(k, v)
					if err := s.ApplyBatch(&b, &res); err != nil {
						t.Errorf("writer: %v", err)
						return
					}
					// The write is acked: publish the new floor. A reader
					// that starts after this store must see >= v.
					acked[k].Store(v)
				}
			}
		}(w)
	}

	readErr := make(chan string, 1)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b op.Batch
			var res op.Results
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Load the floors BEFORE the read: the read linearizes
				// after these loads, so it must return at least them.
				var floor [keys]uint64
				b.Reset()
				for k := uint64(0); k < keys; k++ {
					floor[k] = acked[k].Load()
					b.Get(k)
				}
				if err := s.ApplyBatch(&b, &res); err != nil {
					select {
					case readErr <- err.Error():
					default:
					}
					return
				}
				for k := uint64(0); k < keys; k++ {
					if !res.Found[k] || res.Vals[k] < floor[k] {
						select {
						case readErr <- "stale read: key " + itoa(k) + " returned " +
							itoa(res.Vals[k]) + " after value " + itoa(floor[k]) + " was acked":
						default:
						}
						return
					}
				}
			}
		}()
	}

	for time.Now().Before(deadline) {
		select {
		case msg := <-readErr:
			close(stop)
			wg.Wait()
			t.Fatal(msg)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-readErr:
		t.Fatal(msg)
	default:
	}

	st := s.Stats()
	if st.FastpathSeqlockReads+st.FastpathLockedReads == 0 {
		t.Fatal("no GET entries counted on either read path")
	}
	t.Logf("reads: seqlock=%d locked=%d retries=%d fallbacks=%d",
		st.FastpathSeqlockReads, st.FastpathLockedReads,
		st.SeqlockRetries, st.SeqlockFallbacks)
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func TestSeqlockRetryHistRecords(t *testing.T) {
	if raceEnabled {
		t.Skip("seqlock path is disabled under -race")
	}
	reg := obs.NewRegistry()
	h := reg.Hist("test_seqlock_retries", "retries per optimistic read")
	s, err := Open(KindEH, WithConcurrency(true), WithSeqlockRetryHist(h))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := uint64(0); i < 16; i++ {
		if err := s.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	var b op.Batch
	var res op.Results
	applyGets(t, s, &b, &res, 1, 2, 3)
	if h.Count() == 0 {
		t.Fatal("seqlock retry histogram recorded nothing for an optimistic read")
	}
	if st := s.Stats(); st.FastpathSeqlockReads != 3 {
		t.Fatalf("FastpathSeqlockReads = %d, want 3 (%+v)", st.FastpathSeqlockReads, st)
	}
}

func TestClosedBatchPathsDoNotAllocate(t *testing.T) {
	s, err := Open(KindHT, WithConcurrency(true))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	keys := []uint64{1, 2, 3}
	out := make([]uint64, 3)
	if n := testing.AllocsPerRun(100, func() {
		found := s.LookupBatch(keys, out)
		for i := range found {
			if found[i] {
				t.Error("closed LookupBatch reported a hit")
			}
		}
	}); n != 0 {
		t.Fatalf("closed LookupBatch allocates %.1f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		found := s.DeleteBatch(keys)
		for i := range found {
			if found[i] {
				t.Error("closed DeleteBatch reported a hit")
			}
		}
	}); n != 0 {
		t.Fatalf("closed DeleteBatch allocates %.1f times per call, want 0", n)
	}
}
