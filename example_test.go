package vmshortcut_test

import (
	"fmt"
	"sync"
	"time"

	"vmshortcut"
)

// ExampleOpen builds the paper's index with the single facade constructor,
// inserts entries, waits for the shortcut directory to synchronize, and
// looks the entries up through the page table. Open creates and owns the
// backing page pool; Close releases both.
func ExampleOpen() {
	idx, err := vmshortcut.Open(vmshortcut.KindShortcutEH,
		vmshortcut.WithPollInterval(time.Millisecond))
	if err != nil {
		panic(err)
	}
	defer idx.Close()

	for k := uint64(1); k <= 100_000; k++ {
		if err := idx.Insert(k, k*k); err != nil {
			panic(err)
		}
	}
	idx.WaitSync(5 * time.Second)

	v, ok := idx.Lookup(262)
	fmt.Println(v, ok, idx.Stats().UsingShortcut)
	// Output: 68644 true true
}

// ExampleOpen_batch loads and reads through ApplyBatch, the one batch
// call: an ordered mix of PUT, GET and DEL entries that takes a
// concurrent store's lock once and, on a durable store, becomes one WAL
// record.
func ExampleOpen_batch() {
	idx, err := vmshortcut.Open(vmshortcut.KindShortcutEH,
		vmshortcut.WithPollInterval(time.Millisecond))
	if err != nil {
		panic(err)
	}
	defer idx.Close()

	var (
		b   vmshortcut.OpBatch
		res vmshortcut.OpResults
	)
	for k := uint64(1); k <= 10_000; k++ {
		b.Put(k, k*10)
	}
	if err := idx.ApplyBatch(&b, &res); err != nil {
		panic(err)
	}
	idx.WaitSync(5 * time.Second)

	b.Reset()
	b.Get(42)
	b.Del(42)
	b.Get(42)
	if err := idx.ApplyBatch(&b, &res); err != nil {
		panic(err)
	}
	fmt.Println(idx.Len(), res.Vals[0], res.Found[0], res.Found[1], res.Found[2])
	// Output: 9999 420 true true false
}

// ExampleOpen_sharded hash-partitions the keyspace across four shards —
// each an independent Shortcut-EH index with its own lock stripe and page
// pool — and loads it from four concurrent writers. Single operations
// route by key hash; batches split by shard and fan out in parallel, so
// writers to different shards never contend. Stats and Len aggregate
// across shards; WaitSync and Close fan out and drain.
func ExampleOpen_sharded() {
	idx, err := vmshortcut.Open(vmshortcut.KindShortcutEH,
		vmshortcut.WithShards(4),
		vmshortcut.WithPollInterval(time.Millisecond))
	if err != nil {
		panic(err)
	}
	defer idx.Close()

	const perWriter = 25_000
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var (
				b   vmshortcut.OpBatch
				res vmshortcut.OpResults
			)
			for i := 0; i < perWriter; i++ {
				k := uint64(w*perWriter + i)
				b.Put(k, k*2)
			}
			if err := idx.ApplyBatch(&b, &res); err != nil {
				panic(err)
			}
		}(w)
	}
	wg.Wait()
	idx.WaitSync(5 * time.Second)

	v, ok := idx.Lookup(99_999)
	fmt.Println(idx.Len(), v, ok, idx.Stats().InSync)
	// Output: 100000 199998 true true
}

// ExampleOpen_sweep runs the same workload over both kinds through the
// uniform Store surface — the facade makes EH and Shortcut-EH
// interchangeable.
func ExampleOpen_sweep() {
	for _, kind := range vmshortcut.Kinds() {
		idx, err := vmshortcut.Open(kind, vmshortcut.WithCapacity(10_000),
			vmshortcut.WithPollInterval(time.Millisecond))
		if err != nil {
			panic(err)
		}
		for k := uint64(1); k <= 1000; k++ {
			if err := idx.Insert(k, k+7); err != nil {
				panic(err)
			}
		}
		idx.WaitSync(5 * time.Second)
		v, ok := idx.Lookup(999)
		fmt.Println(kind, idx.Len(), v, ok)
		idx.Close()
	}
	// Output:
	// eh 1000 1006 true
	// shortcut-eh 1000 1006 true
}

// ExampleNewShortcutNode shows the rewiring layer directly: a shortcut
// node aliasing pooled leaf pages so both views read the same bytes.
func ExampleNewShortcutNode() {
	pool, err := vmshortcut.NewPool(vmshortcut.PoolConfig{})
	if err != nil {
		panic(err)
	}
	defer pool.Close()

	leaves, err := pool.AllocN(2)
	if err != nil {
		panic(err)
	}
	copy(pool.Page(leaves[0]), "hello")
	copy(pool.Page(leaves[1]), "world")

	sc, err := vmshortcut.NewShortcutNode(pool, 2)
	if err != nil {
		panic(err)
	}
	defer sc.Close()
	sc.Set(0, leaves[0], true)
	sc.Set(1, leaves[1], true)

	fmt.Printf("%s %s\n", sc.Leaf(0)[:5], sc.Leaf(1)[:5])
	// Output: hello world
}
