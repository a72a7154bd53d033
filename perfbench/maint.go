package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/intent"
	"repro/internal/layout"
	"repro/internal/raid"
)

// outageWrites is the size of the seeded write set issued while a disk
// is failed; the intent log must cover exactly what it skipped.
const outageWrites = 1024

// Each cycle repeats its steps, so every run has several samples of
// each.
const (
	verifiesPerCycle   = 2
	resyncsPerCycle    = 12
	rebuildsPerCycle   = 6
	rsWritesPerCycle   = 4
	rsRebuildsPerCycle = 2
)

// colRef names the node and local disk behind an engine column.
type colRef struct{ node, local int }

// maint drives the timed maintenance cycle on a mirror array and an
// rs(4,2) array that share the rig's nodes:
//
//  1. Verify the flushed mirror array.
//  2. Outages: FailDisk, a seeded write set, disk.Readmit, then Resync
//     of the intent log's dirty regions.
//  3. Rebuilds: SwapDev + ReplaceDisk, Rebuild, then a full read-back.
//  4. Full-stripe write passes over the rs array, then rebuilds
//     (ReplaceDisk, Rebuild), then RSArray.Verify and a full read-back.
//
// With a foreground client (gate non-nil) the client runs throughout,
// read-only while the mirror array is under maintenance (Verify needs
// a write-quiet array, and Resync and Rebuild copy blocks without
// excluding concurrent writers), paused only across fault injection.
type maint struct {
	r      *rig
	t      *tracer
	arr    *core.RAIDx
	il     *intent.Log
	cols   []colRef
	rs     *raid.RSArray
	rsCols []colRef
	bodies bodies
	g      *gate
	rng    *rand.Rand

	// The write set owns [wsLo, wsHi) of the mirror array; fgExpect
	// gives the version of every block below wsLo.
	wsLo, wsHi int64
	wsVer      []uint64
	fgExpect   func(int64) uint64
	wset       []int64 // blocks of the last outage write set
	seq        uint64
	rsVer      uint64

	// Victim rotations: each step visits the columns in turn, so runs
	// with different seeds do the same work (a grown column holds less
	// than a base one).
	resyncs, rebuilds, rsRebuilds int

	verifyMBs, resyncS, rebuildMBs, rsWriteMBs, rsRebuildMBs []float64
	dirtyBlocks, copiedPerWritten                            []float64
	wrong                                                    int64
}

// rotate returns the next of n columns in the rotation *ctr.
func rotate(ctr *int, n int) int {
	i := *ctr % n
	*ctr++
	return i
}

func (m *maint) expect(blk int64) uint64 {
	if blk >= m.wsLo {
		return m.wsVer[blk-m.wsLo]
	}
	return m.fgExpect(blk)
}

// cycle runs one maintenance cycle.
func (m *maint) cycle(ctx context.Context) error {
	bs := int64(blockSize)
	m.g.setWrites(false)
	if err := m.arr.Flush(ctx); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	// 1. Verify.
	for i := 0; i < verifiesPerCycle; i++ {
		start := time.Now()
		if err := m.t.span(ctx, "verify", m.arr.Blocks(), m.arr.Verify); err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		m.verifyMBs = append(m.verifyMBs, mbps(m.arr.Blocks()*bs, time.Since(start)))
	}
	// 2. Outages and delta resyncs.
	for i := 0; i < resyncsPerCycle; i++ {
		if err := m.resync(ctx, rotate(&m.resyncs, len(m.cols))); err != nil {
			return err
		}
	}
	// 3. Replace and rebuild, each followed by a full read-back.
	for i := 0; i < rebuildsPerCycle; i++ {
		if err := m.rebuild(ctx, rotate(&m.rebuilds, len(m.cols))); err != nil {
			return err
		}
	}
	// 4. The rs array: full-stripe write passes, then replace and
	// rebuild, then the parity check and a full read-back.
	m.g.setWrites(true)
	for i := 0; i < rsWritesPerCycle; i++ {
		m.rsVer++
		ver := m.rsVer
		start := time.Now()
		err := m.t.span(ctx, "rs-write", m.rs.Blocks(), func(ctx context.Context) error {
			return fill(ctx, m.rs, m.bodies, 0, m.rs.Blocks(), func(int64) uint64 { return ver })
		})
		if err != nil {
			return fmt.Errorf("rs write: %w", err)
		}
		m.rsWriteMBs = append(m.rsWriteMBs, mbps(m.rs.Blocks()*bs, time.Since(start)))
	}
	for i := 0; i < rsRebuildsPerCycle; i++ {
		if err := m.rsRebuild(ctx, rotate(&m.rsRebuilds, len(m.rsCols))); err != nil {
			return err
		}
	}
	if err := m.rs.Verify(ctx); err != nil {
		return fmt.Errorf("rs verify: %w", err)
	}
	ver := m.rsVer
	wrong, err := readBack(ctx, m.rs, m.bodies, 0, m.rs.Blocks(), func(int64) uint64 { return ver })
	m.wrong += wrong
	return err
}

// resync runs one outage of column idx and the delta resync after it.
func (m *maint) resync(ctx context.Context, idx int) error {
	if err := m.outage(ctx, idx); err != nil {
		return err
	}
	start := time.Now()
	var st core.ResyncStats
	err := m.t.span(ctx, "resync", 0, func(ctx context.Context) error {
		regions := m.il.TakeDirty(idx)
		var dirty int64
		for _, r := range regions {
			dirty += r.Count
		}
		m.dirtyBlocks = append(m.dirtyBlocks, float64(dirty))
		var err error
		st, err = m.arr.Resync(ctx, idx, regions, nil)
		return err
	})
	if err != nil {
		return fmt.Errorf("resync: %w", err)
	}
	m.resyncS = append(m.resyncS, time.Since(start).Seconds())
	m.copiedPerWritten = append(m.copiedPerWritten, float64(st.BlocksCopied)/float64(m.skipped(idx)))
	return nil
}

// rebuild replaces column idx with a blank disk, rebuilds it and reads
// the whole array back.
func (m *maint) rebuild(ctx context.Context, idx int) error {
	c := m.cols[idx]
	m.g.pause()
	_, err := m.arr.SwapDev(idx, m.arr.Devices()[idx]) // flags the column blank
	if err == nil {
		err = m.r.clients[c.node].ReplaceDisk(c.local)
	}
	if err == nil {
		err = settle(m.r.remote[c.local][c.node], true)
	}
	m.g.resume()
	if err != nil {
		return fmt.Errorf("replace: %w", err)
	}
	start := time.Now()
	err = m.t.span(ctx, "rebuild", diskBlocks, func(ctx context.Context) error { return m.arr.Rebuild(ctx, idx) })
	if err != nil {
		return fmt.Errorf("rebuild: %w", err)
	}
	m.rebuildMBs = append(m.rebuildMBs, mbps(diskBlocks*blockSize, time.Since(start)))
	wrong, err := readBack(ctx, m.arr, m.bodies, 0, m.arr.Blocks(), m.expect)
	m.wrong += wrong
	return err
}

// rsRebuild replaces rs column idx with a blank disk and rebuilds it.
func (m *maint) rsRebuild(ctx context.Context, idx int) error {
	c := m.rsCols[idx]
	if err := m.r.clients[c.node].ReplaceDisk(c.local); err != nil {
		return fmt.Errorf("rs replace: %w", err)
	}
	if err := settle(m.r.remote[c.local][c.node], true); err != nil {
		return fmt.Errorf("rs replace: %w", err)
	}
	start := time.Now()
	err := m.t.span(ctx, "rs-rebuild", diskBlocks, func(ctx context.Context) error { return m.rs.Rebuild(ctx, idx) })
	if err != nil {
		return fmt.Errorf("rs rebuild: %w", err)
	}
	m.rsRebuildMBs = append(m.rsRebuildMBs, mbps(diskBlocks*blockSize, time.Since(start)))
	return nil
}

// outage fails column idx, issues the seeded write set while it is
// down, and readmits it, with the foreground paused so the intent log
// records the write set alone.
func (m *maint) outage(ctx context.Context, idx int) (err error) {
	c := m.cols[idx]
	rd := m.r.remote[c.local][c.node]
	m.g.pause()
	defer m.g.resume()
	if err := m.r.clients[c.node].FailDisk(c.local); err != nil {
		return fmt.Errorf("fail disk: %w", err)
	}
	if err := settle(rd, false); err != nil {
		return fmt.Errorf("fail disk: %w", err)
	}
	buf := make([]byte, blockSize)
	m.wset = m.wset[:0]
	for i := 0; i < outageWrites; i++ {
		blk := m.wsLo + m.rng.Int63n(m.wsHi-m.wsLo)
		m.seq++
		ver := uint64(1)<<56 | m.seq
		m.bodies.stamp(buf, blk, ver)
		if err := m.arr.WriteBlocks(ctx, blk, buf); err != nil {
			m.wsVer[blk-m.wsLo] = unknownVer
			return fmt.Errorf("outage write: %w", err)
		}
		m.wsVer[blk-m.wsLo] = ver
		m.wset = append(m.wset, blk)
	}
	m.r.disks[c.node][c.local].Readmit()
	return settle(rd, true)
}

// skipped counts the physical blocks of column idx the last write set
// addressed: the copies the intent log had to record.
func (m *maint) skipped(idx int) int64 {
	ep := m.arr.Epoch()
	seen := map[layout.Loc]bool{}
	for _, lb := range m.wset {
		for _, l := range []layout.Loc{ep.DataLoc(lb), ep.MirrorLoc(lb)} {
			if l.Disk == idx {
				seen[l] = true
			}
		}
	}
	return max(int64(len(seen)), 1)
}

// final checks the mirror array after the last cycle: flushed, verified
// and read back in full.
func (m *maint) final(ctx context.Context) error {
	m.g.setWrites(false)
	if err := m.arr.Flush(ctx); err != nil {
		return fmt.Errorf("final flush: %w", err)
	}
	if err := m.arr.Verify(ctx); err != nil {
		return fmt.Errorf("final verify: %w", err)
	}
	wrong, err := readBack(ctx, m.arr, m.bodies, 0, m.arr.Blocks(), m.expect)
	m.wrong += wrong
	return err
}

func (m *maint) metrics(out map[string]float64) {
	out["verify_mb_s"] = median(m.verifyMBs)
	out["resync_s"] = median(m.resyncS)
	out["rebuild_mb_s"] = median(m.rebuildMBs)
	out["rs_write_mb_s"] = median(m.rsWriteMBs)
	out["rs_rebuild_mb_s"] = median(m.rsRebuildMBs)
}
