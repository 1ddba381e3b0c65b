package main

import (
	"vmshortcut"
	"vmshortcut/client"
	"vmshortcut/internal/bucket"
	"vmshortcut/internal/core"
	"vmshortcut/internal/eh"
	"vmshortcut/internal/op"
	"vmshortcut/internal/pool"
	"vmshortcut/internal/sceh"
	"vmshortcut/persist"
	"vmshortcut/server"
	"vmshortcut/wal"
)

// Every symbol of the repository that the benchmark calls is referenced
// here, so a change that renames or removes one breaks this file first, and
// a reviewer can see in one place what the benchmark holds still. README.md
// lists the same symbols. Nothing on ROADMAP item 2's docket appears: no
// read cache, adaptive window, same-kind batch frame, deprecated constructor
// or With*Hist option.

// workloadSurface is all that the four end-to-end workloads use.
var workloadSurface = []any{
	vmshortcut.Open,
	vmshortcut.KindShortcutEH,
	vmshortcut.WithShards,
	vmshortcut.WithWAL,
	vmshortcut.WithFsync,
	vmshortcut.FsyncAlways,
	vmshortcut.Store.Insert,
	vmshortcut.Store.Lookup,
	vmshortcut.Store.ApplyBatch,
	vmshortcut.Store.Stats,
	vmshortcut.Store.WaitSync,
	vmshortcut.Store.Close,
	(*vmshortcut.OpBatch).Reset,
	(*vmshortcut.OpBatch).Put,
	vmshortcut.OpResults{},
	vmshortcut.Stats{},
	server.New,
	server.Config{}.Store,
	(*server.Server).Serve,
	(*server.Server).Shutdown,
	client.DialConn,
	(*client.Conn).Pipeline,
	(*client.Conn).Stats,
	(*client.Conn).Close,
	(*client.Pipeline).Get,
	(*client.Pipeline).Put,
	(*client.Pipeline).Flush,
	client.Result{},
}

// ladderSurface is what the traced run's ladder uses beyond that.
var ladderSurface = []any{
	vmshortcut.WithConcurrency,
	vmshortcut.FsyncOff,
	(*vmshortcut.OpBatch).Get,
	(*client.Conn).Get,
	pool.New,
	(*pool.Pool).AllocN,
	(*pool.Pool).Page,
	(*pool.Pool).PageSize,
	(*pool.Pool).Close,
	core.NewTraditional,
	(*core.Traditional).Set,
	(*core.Traditional).Leaf,
	core.NewShortcut,
	(*core.Shortcut).SetFromTraditional,
	(*core.Shortcut).Leaf,
	(*core.Shortcut).Close,
	bucket.ViewAddr,
	bucket.Bucket.Lookup,
	bucket.Bucket.Insert,
	eh.New,
	(*eh.Table).Insert,
	(*eh.Table).Lookup,
	(*eh.Table).SlotOf,
	(*eh.Table).DirAddr,
	sceh.New,
	(*sceh.Table).Insert,
	(*sceh.Table).Lookup,
	(*sceh.Table).WaitSync,
	(*sceh.Table).Stats,
	(*sceh.Table).Close,
	(*op.Batch).AppendMixedPayload,
	(*op.Batch).Len,
	op.DecodePayload,
	op.CodeMixedBatch,
	wal.Open,
	wal.Options{}.Mode,
	(*wal.Log).AppendBatch,
	(*wal.Log).Sync,
	(*wal.Log).Close,
	persist.Snapshot,
	persist.Restore,
}
