package experiments

import (
	"fmt"
	"time"

	"vmshortcut"
	"vmshortcut/internal/core"
	"vmshortcut/internal/harness"
	"vmshortcut/internal/vmsim"
	"vmshortcut/internal/workload"
)

// AblationCoalesce quantifies the paper's §2.1 remark that neighbouring
// virtual pages mapping to neighbouring physical pages can be rewired in a
// single mmap call: it builds the same shortcut per-slot and coalesced and
// reports calls and time.
func AblationCoalesce(slots int) (*harness.Table, error) {
	if slots <= 0 {
		slots = 1 << 14
	}
	p, refs, err := leafSet(slots)
	if err != nil {
		return nil, err
	}
	defer p.Close()

	t := harness.NewTable("Ablation: per-slot vs coalesced shortcut construction")

	scA, err := core.NewShortcut(p, slots)
	if err != nil {
		return nil, err
	}
	defer scA.Close()
	start := time.Now()
	for i, r := range refs {
		if err := scA.Set(i, r, true); err != nil {
			return nil, err
		}
	}
	perSlot := time.Since(start)
	t.AddRow(
		"strategy", "per-slot mmap",
		"mmap calls", fmt.Sprintf("%d", scA.Remaps),
		"total [ms]", fmt.Sprintf("%.2f", us(perSlot)/1000),
		"per slot [us]", fmt.Sprintf("%.3f", us(perSlot)/float64(slots)),
	)

	scB, err := core.NewShortcut(p, slots)
	if err != nil {
		return nil, err
	}
	defer scB.Close()
	start = time.Now()
	calls, err := scB.SetAll(refs, true)
	if err != nil {
		return nil, err
	}
	coalesced := time.Since(start)
	t.AddRow(
		"strategy", "coalesced mmap",
		"mmap calls", fmt.Sprintf("%d", calls),
		"total [ms]", fmt.Sprintf("%.2f", us(coalesced)/1000),
		"per slot [us]", fmt.Sprintf("%.3f", us(coalesced)/float64(slots)),
	)
	return t, nil
}

// AblationPollInterval loads a table with no reader under each mapper
// tick interval and times the insert burst and the WaitSync after it
// (paper §4.1 empirically picks 25ms). With no reader the mapper parks, so
// the interval only bounds the lag readers see: every row builds one
// generation at WaitSync, and the columns measure the tick's own cost.
func AblationPollInterval(entries int, intervals []time.Duration) (*harness.Table, error) {
	if entries <= 0 {
		entries = 500_000
	}
	if len(intervals) == 0 {
		intervals = []time.Duration{
			time.Millisecond, 5 * time.Millisecond,
			25 * time.Millisecond, 100 * time.Millisecond,
		}
	}
	t := harness.NewTable("Ablation: mapper poll interval")
	for _, iv := range intervals {
		tbl, err := vmshortcut.Open(vmshortcut.KindShortcutEH,
			vmshortcut.WithPollInterval(iv),
			vmshortcut.WithPoolConfig(poolConfigFor(entries)))
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for i := 0; i < entries; i++ {
			if err := tbl.Insert(workload.Key(7, uint64(i)), uint64(i)); err != nil {
				tbl.Close()
				return nil, err
			}
		}
		insertDur := time.Since(start)
		start = time.Now()
		synced := tbl.WaitSync(60 * time.Second)
		syncDur := time.Since(start)
		st := tbl.Stats()
		t.AddRow(
			"poll interval", iv.String(),
			"insert total [ms]", fmt.Sprintf("%.1f", us(insertDur)/1000),
			"time-to-sync after burst [ms]", fmt.Sprintf("%.1f", us(syncDur)/1000),
			"synced", fmt.Sprintf("%v", synced),
			"updates applied", fmt.Sprintf("%d", st.UpdatesApplied),
			"superseded", fmt.Sprintf("%d", st.UpdatesSuperseded),
			"creates", fmt.Sprintf("%d", st.CreatesApplied),
		)
		tbl.Close()
	}
	return t, nil
}

// AblationHugePagesSim explores the paper's future-work direction on the
// simulator: expressing a fan-in-1 shortcut with 2 MB pages multiplies TLB
// reach by 512 and shortens walks by one level. It compares per-access
// simulated cost of the traditional node, the 4 KB shortcut, and the 2 MB
// shortcut across working-set sizes.
func AblationHugePagesSim(accesses int, slotCounts []int) (*harness.Table, error) {
	if accesses <= 0 {
		accesses = 500_000
	}
	if len(slotCounts) == 0 {
		slotCounts = []int{1 << 14, 1 << 16, 1 << 18, 1 << 20}
	}
	t := harness.NewTable("Ablation (sim): 2 MB-page shortcuts at fan-in 1")
	for _, slots := range slotCounts {
		// Traditional and 4 KB shortcut.
		m4 := vmsim.New(vmsim.Config{})
		simSetup(m4, slots, slots)
		m4.ResetTime()
		workload.SlotStream(7, slots, accesses, func(slot int) {
			simTraditionalAccess(m4, slot, slots, 1)
		})
		tradNS := m4.Time() / float64(accesses)

		m4.ResetTime()
		workload.SlotStream(7, slots, accesses, func(slot int) {
			simShortcutAccess(m4, slot)
		})
		smallNS := m4.Time() / float64(accesses)

		// 2 MB shortcut: same virtual layout, mapped with huge frames
		// (valid because fan-in 1 over physically contiguous leaves).
		mh := vmsim.New(vmsim.Config{})
		hugeFrames := (slots + 511) / 512
		for h := 0; h < hugeFrames; h++ {
			mh.MapHuge(simShortBase>>21+uint64(h), uint64(h))
		}
		mh.ResetTime()
		workload.SlotStream(7, slots, accesses, func(slot int) {
			simShortcutAccess(mh, slot)
		})
		hugeNS := mh.Time() / float64(accesses)

		t.AddRow(
			"slots", fmt.Sprintf("%d", slots),
			"traditional [ns]", fmt.Sprintf("%.1f", tradNS),
			"shortcut 4K [ns]", fmt.Sprintf("%.1f", smallNS),
			"shortcut 2M [ns]", fmt.Sprintf("%.1f", hugeNS),
			"2M vs 4K", harness.Ratio(smallNS, hugeNS),
		)
	}
	return t, nil
}

// AblationSyncMaintenance compares asynchronous shortcut maintenance (the
// paper's design) against synchronous maintenance on the insert path and
// against a raw EH table with no shortcut at all — quantifying §3.1/§3.3's
// "hide the cost of creation". Each variant runs three times; the minimum
// is reported to suppress scheduler noise.
func AblationSyncMaintenance(entries int) (*harness.Table, error) {
	if entries <= 0 {
		entries = 500_000
	}
	t := harness.NewTable("Ablation: shortcut maintenance strategy (insert cost, best of 3)")
	run := func(open func() (vmshortcut.Store, error)) (time.Duration, error) {
		best := time.Duration(0)
		for rep := 0; rep < 3; rep++ {
			tbl, err := open()
			if err != nil {
				return 0, err
			}
			start := time.Now()
			for i := 0; i < entries; i++ {
				if err := tbl.Insert(workload.Key(9, uint64(i)), uint64(i)); err != nil {
					tbl.Close()
					return 0, err
				}
			}
			d := time.Since(start)
			tbl.Close()
			if best == 0 || d < best {
				best = d
			}
		}
		return best, nil
	}

	poolOpt := vmshortcut.WithPoolConfig(poolConfigFor(entries))
	variants := []struct {
		name string
		open func() (vmshortcut.Store, error)
	}{
		{"async mapper (paper)", func() (vmshortcut.Store, error) {
			return vmshortcut.Open(vmshortcut.KindShortcutEH, poolOpt)
		}},
		{"synchronous maintenance", func() (vmshortcut.Store, error) {
			return vmshortcut.Open(vmshortcut.KindShortcutEH, poolOpt,
				vmshortcut.WithSynchronousMaintenance(true))
		}},
		{"raw EH (no shortcut, no mapper)", func() (vmshortcut.Store, error) {
			return vmshortcut.Open(vmshortcut.KindEH, poolOpt)
		}},
	}
	for _, v := range variants {
		dur, err := run(v.open)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			"variant", v.name,
			"insert total [ms]", fmt.Sprintf("%.1f", us(dur)/1000),
			"per insert [ns]", fmt.Sprintf("%.1f", float64(dur.Nanoseconds())/float64(entries)),
		)
	}
	return t, nil
}
