// Package repl is the replication subsystem: WAL shipping from a primary
// to read replicas, with full sync, resume-from-LSN, optional synchronous
// acknowledgement, and runtime promotion.
//
// # Topology
//
// One primary serves any number of followers over the same TCP port as
// regular clients: a follower's connection starts as an ordinary client
// connection, sends one REPLSYNC frame, and becomes a one-directional
// record stream (plus REPLACK frames flowing back). The primary side is
// Source, attached to a server via its replication hook; the follower
// side is Follower, which owns the connection lifecycle: dial (with
// retry), handshake, restore, apply, reconnect, promote.
//
// # What a follower receives
//
// The handshake names the last primary LSN the follower has applied. If
// the primary's WAL still holds the successor record, the stream resumes
// right there; otherwise (the follower is new, or compaction has
// outpaced it) the primary streams a persist-format snapshot first —
// taken via the store's regular snapshot path, so it carries an exact
// log position — and the record stream starts at that position. Records
// are shipped as their on-disk payload bytes (which are the wire payload
// bytes the write arrived in: the zero-re-encode invariant, pinned by
// TestWALRecordIsWirePayload), and the follower replays them through the
// same ApplyBatch path crash recovery uses — so a replica IS a continuous
// crash recovery, fed over the network instead of from local segments.
//
// # Consistency
//
// Replication is asynchronous by default: an acknowledged write is
// durable on the primary and *eventually* on the followers. With
// SourceConfig.Sync, the server holds each mutation's response until a
// connected follower has acknowledged applying its LSN (degrading — with
// a counter — when no follower is connected or the wait times out), which
// makes "kill -9 the primary, promote the follower" lossless for every
// acknowledged write while a follower is attached. Followers reject
// writes with StatusReadOnly until promoted, and optionally reject reads
// with StatusStale once the primary has been silent past a configured
// bound — so a partitioned replica fails loudly instead of serving
// arbitrarily old data.
package repl
