package sceh

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"vmshortcut/internal/eh"
	"vmshortcut/internal/pool"
	"vmshortcut/internal/workload"
)

// BenchmarkLookup compares EH with Shortcut-EH on one reader: each table is
// loaded with 2^k splitmix keys over a pool of its own, Shortcut-EH is
// given WaitSync before the timer starts, and the timed loop looks up
// uniformly chosen hits. Key derivation is the same on both sides, so the
// difference between kind=eh and kind=sceh at one size is the directory
// load the shortcut replaces. Interleave runs of the two kinds when
// comparing them:
//
//	go test -run '^$' -bench Lookup -benchtime 1s -count 6 ./internal/sceh
//
// Each table is built once per sub-benchmark and reused across its b.N
// rounds, so a one-iteration run (-benchtime 1x) pays one load per size.
func BenchmarkLookup(b *testing.B) {
	type lookupTable interface {
		Lookup(key uint64) (uint64, bool)
	}
	build := map[string]func(n int) (lookupTable, func(), error){
		"eh": func(n int) (lookupTable, func(), error) {
			p, err := benchPool(n)
			if err != nil {
				return nil, nil, err
			}
			t, err := eh.New(p, eh.Config{})
			if err == nil {
				err = load(t, n)
			}
			return t, func() { p.Close() }, err
		},
		"sceh": func(n int) (lookupTable, func(), error) {
			p, err := benchPool(n)
			if err != nil {
				return nil, nil, err
			}
			t, err := New(p, Config{})
			if err != nil {
				p.Close()
				return nil, nil, err
			}
			release := func() { t.Close(); p.Close() }
			if err := load(t, n); err != nil {
				return t, release, err
			}
			if !t.WaitSync(30 * time.Second) {
				return t, release, errors.New("shortcut never synced")
			}
			return t, release, nil
		},
	}
	for _, kind := range []string{"eh", "sceh"} {
		b.Run("kind="+kind, func(b *testing.B) {
			for _, lg := range []int{12, 15, 18, 20} {
				n := 1 << lg
				var tbl lookupTable
				var release func()
				b.Run(fmt.Sprintf("keys=2^%d", lg), func(b *testing.B) {
					if release == nil {
						var err error
						if tbl, release, err = build[kind](n); err != nil {
							b.Fatal(err)
						}
					}
					sc, isSceh := tbl.(*Table)
					var before uint64
					if isSceh {
						before = sc.Stats().ShortcutLookups
					}
					rng := workload.NewRNG(lookupSeed)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						idx := rng.Next() & uint64(n-1)
						if v, ok := tbl.Lookup(workload.Key(lookupSeed, idx)); !ok || v != idx {
							b.Fatalf("Lookup(key %d) = %d, %v", idx, v, ok)
						}
					}
					if isSceh {
						// Under 1 means some lookups fell back to the
						// traditional directory.
						b.ReportMetric(float64(sc.Stats().ShortcutLookups-before)/float64(b.N), "shortcut/op")
					}
				})
				if release != nil {
					release()
				}
			}
		})
	}
}

// lookupSeed names BenchmarkLookup's keyspace.
const lookupSeed = 7

// load inserts splitmix keys 0..n-1 of BenchmarkLookup's keyspace.
func load(t interface{ Insert(k, v uint64) error }, n int) error {
	for i := 0; i < n; i++ {
		if err := t.Insert(workload.Key(lookupSeed, uint64(i)), uint64(i)); err != nil {
			return err
		}
	}
	return nil
}

// benchPool is a page pool sized for n entries.
func benchPool(n int) (*pool.Pool, error) {
	return pool.New(pool.Config{GrowChunkPages: 1 << 10, MaxPages: 4 * (n/32 + 1<<12)})
}
