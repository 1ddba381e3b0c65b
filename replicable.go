// Replication hooks on the durable store. The repl package builds its
// primary (Source) on exactly three capabilities, all of which the
// durability layer already maintains for its own sake: a consistent
// snapshot with an exact log position (full sync), an ordered feed of log
// records after a position (tail shipping), and the log's bounds (resume
// vs. full-sync decisions). Exposing them as an interface — rather than handing out
// the *wal.Log — keeps the replication layer off the store's internals
// and the lock ordering in one place.
package vmshortcut

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"vmshortcut/wal"
)

// Replicable is the replication surface of a store opened with WithWAL,
// obtained through AsReplicable. All methods are safe for concurrent use
// with each other and with serving traffic.
type Replicable interface {
	// SnapshotReader takes a fresh snapshot and returns a reader over its
	// persist-format stream, the log position it covers, and its size.
	// The caller must Close the reader. Mutations pause only while the
	// snapshot is written, not while it is streamed.
	SnapshotReader() (rc io.ReadCloser, lsn uint64, size int64, err error)
	// TailWAL delivers every log record after from to fn in order, then
	// follows live appends; see wal.Log.Tail for the termination and
	// ErrCompacted contract.
	TailWAL(from uint64, stop <-chan struct{}, fn wal.TailFunc) error
	// LastLSN is the newest appended record's position; OldestLSN is the
	// oldest position the log can still replay.
	LastLSN() uint64
	OldestLSN() uint64
}

// AsReplicable returns the replication surface of a store opened with
// WithWAL, and reports whether s has one.
func AsReplicable(s Store) (Replicable, bool) {
	d, ok := s.(*durableStore)
	return d, ok
}

// SnapshotReader takes a snapshot via the regular Snapshot path (write
// lock, fsync, atomic rename) and then streams the published FILE — not
// the live keyspace — so the socket's pace never holds the store's lock.
// The file may be unlinked by a racing newer snapshot's prune while
// streaming; the open file descriptor keeps the bytes readable.
func (d *durableStore) SnapshotReader() (io.ReadCloser, uint64, int64, error) {
	for attempt := 0; ; attempt++ {
		if err := d.Snapshot(); err != nil {
			return nil, 0, 0, err
		}
		lsn := d.snapLSN.Load()
		f, err := os.Open(filepath.Join(d.dir, snapName(lsn)))
		if err != nil {
			// A racing automatic snapshot may have superseded and pruned
			// ours between the Store and the Open; take another.
			if os.IsNotExist(err) && attempt < 2 {
				continue
			}
			return nil, 0, 0, fmt.Errorf("vmshortcut: opening snapshot for streaming: %w", err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, 0, 0, fmt.Errorf("vmshortcut: sizing snapshot for streaming: %w", err)
		}
		return f, lsn, fi.Size(), nil
	}
}

// TailWAL implements Replicable by delegating to the log's tail
// subscription.
func (d *durableStore) TailWAL(from uint64, stop <-chan struct{}, fn wal.TailFunc) error {
	return d.log.Tail(from, stop, fn)
}

// LastLSN implements Replicable.
func (d *durableStore) LastLSN() uint64 { return d.log.LastLSN() }

// OldestLSN implements Replicable.
func (d *durableStore) OldestLSN() uint64 { return d.log.OldestLSN() }
