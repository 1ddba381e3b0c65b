package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// The failure modes this file guards against were all observed on the
// reference host (README, "Known findings"): above the kernel's default
// vm.max_map_count the shortcut never syncs, the runtime dies, or lookups
// silently miss. They must stop a run, not shape its numbers.

const (
	minMapCount  = 65530 // the kernel default
	vmaShareMax  = 0.90  // of vm.max_map_count, after set-up
	tmpfsMagic   = 0x01021994
	ramfsMagic   = 0x858458f6
	mapCountFile = "/proc/sys/vm/max_map_count"
)

// host is what preflight records about the machine.
type host struct {
	nproc, gomaxprocs int
	goVersion         string
	maxMapCount       int
	outFS             string // filesystem of the WAL directory
}

func (h host) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s vm.max_map_count=%d wal_fs=%s",
		h.nproc, h.gomaxprocs, h.goVersion, h.maxMapCount, h.outFS)
}

// preflight records the host and refuses one the benchmark cannot measure on.
func preflight(outDir string) (host, error) {
	h := host{nproc: runtime.NumCPU(), gomaxprocs: runtime.GOMAXPROCS(0), goVersion: runtime.Version()}
	b, err := os.ReadFile(mapCountFile)
	if err != nil {
		return h, err
	}
	if h.maxMapCount, err = strconv.Atoi(strings.TrimSpace(string(b))); err != nil {
		return h, fmt.Errorf("%s: %w", mapCountFile, err)
	}
	if h.maxMapCount < minMapCount {
		return h, fmt.Errorf("vm.max_map_count is %d; the 32768-slot shortcut needs at least %d", h.maxMapCount, minMapCount)
	}
	var fs syscall.Statfs_t
	if err := syscall.Statfs(outDir, &fs); err != nil {
		return h, fmt.Errorf("statfs %s: %w", outDir, err)
	}
	h.outFS = fmt.Sprintf("0x%x", uint64(fs.Type))
	if uint64(fs.Type) == tmpfsMagic || uint64(fs.Type) == ramfsMagic {
		return h, fmt.Errorf("%s is on tmpfs (%s): fsync would be free, so the WAL cannot be measured there", outDir, h.outFS)
	}
	return h, nil
}

// vmas counts this process's memory mappings.
func vmas() (int, error) {
	b, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return 0, err
	}
	return strings.Count(string(b), "\n"), nil
}

// rssPeakMB is the process's peak resident set size (VmHWM).
func rssPeakMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// checkSetup aborts a run whose loaded store is not the one the benchmark
// defines or is close to the mapping limit.
func checkSetup(cfg *config, h host, slots, nvmas int) error {
	if cfg.dirSlots != 0 && slots != cfg.dirSlots {
		return fmt.Errorf("loaded store has %d directory slots, want %d: not the load this benchmark defines", slots, cfg.dirSlots)
	}
	if float64(nvmas) > vmaShareMax*float64(h.maxMapCount) {
		return fmt.Errorf("%d memory mappings after set-up, above %.0f %% of vm.max_map_count=%d", nvmas, vmaShareMax*100, h.maxMapCount)
	}
	return nil
}
