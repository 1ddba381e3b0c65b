package obs

// Stage identifies one segment of a batch's path through the server.
// The stages partition the server-side wall clock of a batch: decode,
// coalesce wait, shard apply, WAL append (including group-commit wait),
// replication sync-ack wait, and reply write, with StageTotal covering
// the whole span read-frame-done → reply-flushed. StageWALFsync is the
// odd one out: it times individual fsync syscalls globally (the group
// leader pays it once for many batches), so it does not sum into
// per-batch totals.
type Stage int

const (
	StageDecode Stage = iota
	StageCoalesce
	StageApply
	StageWALAppend
	StageWALFsync
	StageReplAck
	StageReplyWrite
	StageFollowerApply
	StageTotal
	NumStages
)

var stageNames = [NumStages]string{
	StageDecode:        "frame_decode",
	StageCoalesce:      "coalesce_wait",
	StageApply:         "shard_apply",
	StageWALAppend:     "wal_append",
	StageWALFsync:      "wal_fsync",
	StageReplAck:       "repl_sync_ack",
	StageReplyWrite:    "reply_write",
	StageFollowerApply: "follower_apply",
	StageTotal:         "batch_total",
}

var stageHelp = [NumStages]string{
	StageDecode:        "Wire frame decode into the op.Batch representation.",
	StageCoalesce:      "Wait in the per-connection coalescer before the batch was sealed.",
	StageApply:         "Store/shard apply (fan-out, index mutation, gather).",
	StageWALAppend:     "WAL append including any group-commit wait for durability.",
	StageWALFsync:      "Individual WAL fsync syscalls (global, not per batch).",
	StageReplAck:       "Wait for synchronous replication acknowledgement.",
	StageReplyWrite:    "Encode and write the reply frames to the connection.",
	StageFollowerApply: "Replica-side apply of a shipped record (recorded on the follower).",
	StageTotal:         "End-to-end server time for the batch, frame read to reply flushed.",
}

// String returns the stage's short name as used in metric names and the
// slow-op log.
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// MetricName returns the stage histogram's Prometheus series name.
func (s Stage) MetricName() string { return "eh_stage_" + s.String() + "_ns" }

// Pipeline is the per-node set of stage histograms. All fields are
// nil-safe Hists, so a zero Pipeline (or a nil *Pipeline via its
// methods' receivers being unused) records nothing.
type Pipeline struct {
	hists [NumStages]*Hist
}

// NewPipeline registers one histogram per stage in r.
func NewPipeline(r *Registry) *Pipeline {
	p := &Pipeline{}
	for s := Stage(0); s < NumStages; s++ {
		p.hists[s] = r.Hist(s.MetricName(), stageHelp[s])
	}
	return p
}

// Hist returns the histogram for a stage (nil on a nil Pipeline, which
// is still safe to record into).
func (p *Pipeline) Hist(s Stage) *Hist {
	if p == nil || s < 0 || s >= NumStages {
		return nil
	}
	return p.hists[s]
}

// Record adds one nanosecond observation to a stage.
func (p *Pipeline) Record(s Stage, ns uint64) { p.Hist(s).Record(ns) }

// RecordTrace folds a finished batch trace into the stage histograms:
// every stage the trace touched, plus the total. Zero-valued stages the
// trace never set are skipped so empty stages don't distort percentiles
// (a non-durable store has no WAL append; an async primary has no repl
// ack).
func (p *Pipeline) RecordTrace(t *Trace) {
	if p == nil || t == nil {
		return
	}
	for s := Stage(0); s < NumStages; s++ {
		if s == StageWALFsync {
			continue // recorded globally by the WAL, not per batch
		}
		if ns := t.Get(s); ns > 0 || (s == StageTotal && t.set[s]) {
			p.Record(s, ns)
		}
	}
}
