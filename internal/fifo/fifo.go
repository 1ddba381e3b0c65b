// Package fifo implements the concurrent lock-free FIFO queue that
// coordinates the asynchronous maintenance of the shortcut directory
// (paper §4.1): the main thread pushes maintenance requests as soon as the
// traditional directory is modified, and the mapper thread drains the
// queue on its tick and whenever a reader or WaitSync wakes it.
//
// The queue is an intrusive Vyukov-style MPSC queue: any number of
// producers may Push concurrently; a single consumer Pops. All operations
// are wait-free for producers and lock-free overall.
package fifo

import "sync/atomic"

type node[T any] struct {
	next atomic.Pointer[node[T]]
	val  T
}

// Queue is a multi-producer single-consumer lock-free FIFO.
// The zero value is not ready for use; call New.
type Queue[T any] struct {
	head atomic.Pointer[node[T]] // producers swap here
	tail *node[T]                // consumer-owned
	size atomic.Int64
}

// New returns an empty queue.
func New[T any]() *Queue[T] {
	q := &Queue[T]{}
	stub := &node[T]{}
	q.head.Store(stub)
	q.tail = stub
	return q
}

// Push enqueues v. Safe for concurrent use by any number of goroutines.
func (q *Queue[T]) Push(v T) {
	n := &node[T]{val: v}
	prev := q.head.Swap(n)
	prev.next.Store(n)
	q.size.Add(1)
}

// Pop dequeues the oldest element. Only one goroutine may call Pop
// (the mapper thread). Returns ok=false when the queue is empty.
func (q *Queue[T]) Pop() (v T, ok bool) {
	next := q.tail.next.Load()
	if next == nil {
		return v, false
	}
	q.tail = next
	v = next.val
	var zero T
	next.val = zero // release references held by the detached node
	q.size.Add(-1)
	return v, true
}

// Drain pops every element currently visible and returns them in FIFO
// order. Consumer-only, like Pop.
func (q *Queue[T]) Drain() []T {
	var out []T
	for {
		v, ok := q.Pop()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// Len reports the approximate number of queued elements.
func (q *Queue[T]) Len() int { return int(q.size.Load()) }

// Empty reports whether the queue currently appears empty.
func (q *Queue[T]) Empty() bool { return q.tail.next.Load() == nil }
