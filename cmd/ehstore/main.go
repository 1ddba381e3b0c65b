// Command ehstore administers the WAL directory of a durable store, such
// as the -wal-dir of a stopped ehserver. It recovers the keyspace from the
// newest snapshot plus the WAL tail, runs one operation and exits: "snap"
// takes a point-in-time snapshot, "compact" drops the WAL segments the
// newest snapshot covers. Snapshots and WAL records store plain (key,
// value) operations, so the directory of any index kind recovers here.
//
// Nothing locks the directory: run ehstore only while no server has it
// open.
//
// Usage:
//
//	ehstore -wal-dir /var/lib/ehserver -admin snap
//	ehstore -wal-dir /var/lib/ehserver -admin compact
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"vmshortcut"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "ehstore:", err)
		os.Exit(1)
	}
}

// run parses args and executes one administration operation, writing its
// report to stdout. It checks the operation and the directory before it
// opens the store, so a mistyped argument creates and changes nothing.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ehstore", flag.ContinueOnError)
	walDir := fs.String("wal-dir", "", "WAL directory of a durable store that no server has open")
	admin := fs.String("admin", "", "operation: snap (snapshot the recovered keyspace) | compact (drop the WAL segments the newest snapshot covers)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *admin != "snap" && *admin != "compact":
		return fmt.Errorf("-admin %q: want snap or compact", *admin)
	case *walDir == "":
		return errors.New("-wal-dir is required")
	}
	if _, err := os.Stat(*walDir); err != nil {
		return err
	}

	// EH builds no shortcut mappings, and recovery does not depend on the
	// kind that wrote the directory.
	s, err := vmshortcut.Open(vmshortcut.KindEH, vmshortcut.WithWAL(*walDir))
	if err != nil {
		return err
	}
	d, _ := vmshortcut.AsDurable(s)
	start := time.Now()
	switch *admin {
	case "snap":
		if err = d.Snapshot(); err == nil {
			st := s.Stats()
			fmt.Fprintf(stdout, "snap: %d entries snapshotted at LSN %d in %s\n",
				st.Entries, st.SnapshotLSN, time.Since(start).Round(time.Millisecond))
		}
	case "compact":
		var removed int
		if removed, err = d.CompactWAL(); err == nil {
			ws := d.WALStats()
			fmt.Fprintf(stdout, "compact: %d segments removed; %d remain (%d bytes, last LSN %d)\n",
				removed, ws.Segments, ws.Bytes, ws.LastLSN)
		}
	}
	return errors.Join(err, s.Close())
}
