// Tail subscription: the replication primary's feed. Tail streams every
// record after a starting position to a callback — first catching up from
// the segment files, then following live appends via a notification
// channel — without buffering records in memory or holding the log lock
// while reading. The design leans on two append-only facts: bytes written
// to a segment never change, and a record is wholly on disk before the
// log publishes its LSN (the tailer flushes the segment writer under the
// log lock and snapshots lastLSN and the active segment's flushed size in
// the same critical section, then reads the files outside any lock, never
// past that size — so it can neither observe a partially-written record
// nor buffer preallocated zeros that a later append turns into records).
package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// ErrCompacted is returned by Tail when the requested position has been
// compacted away: the records the caller still needs exist nowhere in the
// log, so it must full-sync from a snapshot instead.
var ErrCompacted = errors.New("wal: tail position compacted away")

// TailRecord is one record delivered by Tail: the sequence number, the
// batch code, and the batch payload exactly as it sits on disk (and
// exactly as it arrived on the wire — the zero-re-encode invariant). The
// payload aliases a buffer reused between records: the callback must
// consume or copy it before returning.
type TailRecord struct {
	LSN     uint64
	Code    byte
	Payload []byte
}

// TailFunc receives records from Tail in LSN order. Returning an error
// stops the tail and surfaces the error from Tail.
type TailFunc func(r TailRecord) error

// Tail delivers every record with LSN > from to fn, in order, then blocks
// following the log: each new append is delivered as it becomes readable
// (before any fsync — shipping does not wait on the sync policy). It
// returns nil when stop closes, ErrClosed once the log closes (after
// delivering every record appended before Close began), ErrCompacted when
// record from+1 no longer exists, and fn's error if fn fails. Multiple
// Tails may run concurrently with each other and with appenders.
func (l *Log) Tail(from uint64, stop <-chan struct{}, fn TailFunc) error {
	l.mu.Lock()
	last, closed := l.lastLSN, l.closed
	l.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if from > last {
		return fmt.Errorf("wal: tail from LSN %d but the log ends at %d", from, last)
	}
	l.tailers.Add(1)
	defer l.tailers.Add(-1)
	t := tailer{l: l, next: from + 1}
	defer t.closeFile()
	for {
		target, err := t.sync()
		if err != nil {
			return err
		}
		if target >= t.next {
			if err := t.deliver(target, fn); err != nil {
				return err
			}
			continue // more may have arrived while delivering
		}
		// Caught up. Grab the wake channel BEFORE re-checking the
		// position: an append between the check and the select would
		// otherwise be a missed wakeup.
		ch := l.wakeChan()
		if l.LastLSN() >= t.next {
			continue
		}
		select {
		case <-ch:
		case <-stop:
			return nil
		case <-l.stopc:
			// Close begins by signalling stopc; drain what was appended
			// before it, then report closed. Appends racing with Close
			// itself have no delivery guarantee.
			if target, err := t.sync(); err == nil && target >= t.next {
				if err := t.deliver(target, fn); err != nil {
					return err
				}
			}
			return ErrClosed
		}
	}
}

// tailer is one Tail call's cursor: the next LSN owed to the callback and
// the open segment it is reading from.
type tailer struct {
	l        *Log
	next     uint64
	f        *os.File
	rd       recordReader
	segFirst uint64 // firstLSN of the open segment

	// The last sync's snapshot of the active segment — its first LSN and
	// flushed size: how far into that segment the reader may go.
	activeFirst uint64
	activeSize  int64
}

// sync flushes the log's segment writer and snapshots the delivery
// target and the active segment's size, all under the log lock: every
// record with LSN ≤ the returned target is fully in the files, below that
// size, before this returns. It also re-checks that the cursor has not
// been compacted out from under us.
func (t *tailer) sync() (uint64, error) {
	l := t.l
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return 0, err
	}
	if !l.closed {
		if err := l.bw.Flush(); err != nil {
			l.err = err
			l.mu.Unlock()
			return 0, err
		}
	}
	target := l.lastLSN
	oldest := l.segs[0].firstLSN
	active := l.segs[len(l.segs)-1]
	t.activeFirst, t.activeSize = active.firstLSN, active.size
	l.mu.Unlock()
	if t.next < oldest {
		return 0, ErrCompacted
	}
	return target, nil
}

// deliver reads records from the segment files and feeds [next, target]
// to fn. Records below next (the head of a segment entered mid-way on
// resume) are skipped; a clean EOF below target means the segment was
// sealed by rotation and the cursor moves to its successor.
func (t *tailer) deliver(target uint64, fn TailFunc) error {
	if t.f != nil {
		t.bound() // a new sync, a new snapshot
	}
	for t.next <= target {
		if t.f == nil {
			if err := t.openSegment(); err != nil {
				return err
			}
		}
		lsn, code, payload, err := t.rd.next()
		if err == io.EOF {
			prev := t.segFirst
			t.closeFile()
			if err := t.openSegment(); err != nil {
				return err
			}
			if t.segFirst == prev {
				return fmt.Errorf("%w: record %d missing from segment starting at LSN %d",
					ErrCorrupt, t.next, prev)
			}
			continue
		}
		if err != nil {
			// Everything below the bound was flushed whole, so unlike
			// recovery the tailer has no torn tail to forgive.
			return fmt.Errorf("tail: segment at LSN %d: %w", t.segFirst, err)
		}
		if lsn < t.next {
			continue
		}
		if lsn != t.next {
			return fmt.Errorf("%w: tail read LSN %d, expected %d", ErrCorrupt, lsn, t.next)
		}
		if err := fn(TailRecord{LSN: lsn, Code: code, Payload: payload[payloadPrefixSize:]}); err != nil {
			return err
		}
		t.next = lsn + 1
	}
	return nil
}

// openSegment opens the segment that contains (or will contain) record
// next. A segment file deleted between the lookup and the open was
// compacted, which implies next was too.
func (t *tailer) openSegment() error {
	l := t.l
	l.mu.Lock()
	var seg segment
	found := false
	for i := len(l.segs) - 1; i >= 0; i-- {
		if l.segs[i].firstLSN <= t.next {
			seg = l.segs[i]
			found = true
			break
		}
	}
	l.mu.Unlock()
	if !found {
		return ErrCompacted
	}
	f, err := os.Open(seg.path)
	if err != nil {
		if os.IsNotExist(err) {
			return ErrCompacted
		}
		return fmt.Errorf("wal: tail opening %s: %w", seg.path, err)
	}
	t.f = f
	t.segFirst = seg.firstLSN
	t.rd.off = 0
	t.bound()
	return nil
}

// bound points the reader at the open segment from its cursor to what the
// last sync saw flushed: the snapshot size when the segment was the active
// one, its end when it was already sealed (rotation cuts a sealed segment
// to its records). Whatever a delivery reads ahead lies below its bound, so
// the buffer is empty again — nothing is re-read — by the next one.
func (t *tailer) bound() {
	end := int64(math.MaxInt64)
	if t.segFirst == t.activeFirst {
		end = t.activeSize
	}
	src := io.NewSectionReader(t.f, t.rd.off, end-t.rd.off)
	if t.rd.br == nil {
		t.rd.br = bufio.NewReaderSize(src, 256<<10)
	} else {
		t.rd.br.Reset(src)
	}
}

// closeFile releases the open segment file, if any.
func (t *tailer) closeFile() {
	if t.f != nil {
		t.f.Close()
		t.f = nil
	}
}

// wakeChan returns the channel the next append will close.
func (l *Log) wakeChan() <-chan struct{} {
	l.wakeMu.Lock()
	ch := l.wakeC
	l.wakeMu.Unlock()
	return ch
}

// wakeTailers signals waiting tailers that the log grew. The tailer count
// keeps the no-subscriber hot path to one atomic load.
func (l *Log) wakeTailers() {
	if l.tailers.Load() == 0 {
		return
	}
	l.wakeMu.Lock()
	close(l.wakeC)
	l.wakeC = make(chan struct{})
	l.wakeMu.Unlock()
}
