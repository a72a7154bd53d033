package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/workload"
)

// flushEvery is the burst length: a client calls Flush after every
// flushEvery acknowledged writes, and the Flush time is the deferred
// mirror window (redundancy_lag_ms).
const flushEvery = 64

// fgStats is one foreground client's tally.
type fgStats struct {
	readLat, writeLat, flushLat samples
	readWin, writeWin           []int32 // measurement window of each sample
	readBytes, writeBytes       int64
	attempted, failed, wrong    int64
	// win reports the current measurement window (nil: window 0).
	win func() int32
}

func (s *fgStats) window() int32 {
	if s.win == nil {
		return 0
	}
	return s.win()
}

func (s *fgStats) read(d time.Duration, n int) {
	s.readLat.add(d)
	s.readWin = append(s.readWin, s.window())
	s.readBytes += int64(n)
}

func (s *fgStats) write(d time.Duration, n int) {
	s.writeLat.add(d)
	s.writeWin = append(s.writeWin, s.window())
	s.writeBytes += int64(n)
}

func (s *fgStats) merge(o *fgStats) {
	s.readLat = append(s.readLat, o.readLat...)
	s.writeLat = append(s.writeLat, o.writeLat...)
	s.flushLat = append(s.flushLat, o.flushLat...)
	s.readWin = append(s.readWin, o.readWin...)
	s.writeWin = append(s.writeWin, o.writeWin...)
	s.readBytes += o.readBytes
	s.writeBytes += o.writeBytes
	s.attempted += o.attempted
	s.failed += o.failed
	s.wrong += o.wrong
}

// gate lets the maintenance goroutine pause the foreground client and
// switch its writes off. The client holds the read side for each op, so
// taking the write side waits for the op in flight and orders every
// oracle update the client made before whatever the holder does next.
type gate struct {
	mu     sync.RWMutex
	writes atomic.Bool
}

func newGate() *gate {
	g := &gate{}
	g.writes.Store(true)
	return g
}

func (g *gate) pause() {
	if g != nil {
		g.mu.Lock()
	}
}

func (g *gate) resume() {
	if g != nil {
		g.mu.Unlock()
	}
}

func (g *gate) setWrites(on bool) {
	if g != nil {
		g.mu.Lock()
		g.writes.Store(on)
		g.mu.Unlock()
	}
}

// oltpClient runs workload.OLTP (70 % reads, Zipf 0.9, one-block ops)
// closed-loop over its own region [base, base+len(ver)) and checks every
// read against the last version it acknowledged there.
type oltpClient struct {
	io     blockIO
	bodies bodies
	gen    *workload.Gen
	base   int64
	ver    []uint64
	id     uint64
	seq    uint64
	buf    []byte
	burst  int
	st     fgStats
}

func newOLTPClient(io blockIO, bs bodies, base, n int64, id, seed uint64) *oltpClient {
	return &oltpClient{
		io:     io,
		bodies: bs,
		gen:    workload.NewGen(workload.OLTP(n), seed*16+id),
		base:   base,
		ver:    make([]uint64, n),
		id:     id,
		buf:    make([]byte, len(bs[0])),
	}
}

// step issues the next op of the stream. With writes off, a write op is
// issued as a read of the same block.
func (c *oltpClient) step(ctx context.Context, writes bool) {
	op := c.gen.Op()
	off := op.Block
	blk := c.base + off
	c.st.attempted++
	if op.Read || !writes {
		start := time.Now()
		err := c.io.ReadBlocks(ctx, blk, c.buf)
		d := time.Since(start)
		if err != nil {
			c.st.failed++
			return
		}
		c.st.read(d, len(c.buf))
		if !c.bodies.check(c.buf, blk, c.ver[off]) {
			c.st.wrong++
		}
		return
	}
	c.seq++
	ver := c.id<<40 | c.seq
	c.bodies.stamp(c.buf, blk, ver)
	start := time.Now()
	err := c.io.WriteBlocks(ctx, blk, c.buf)
	d := time.Since(start)
	if err != nil {
		c.st.failed++
		c.ver[off] = unknownVer
		return
	}
	c.ver[off] = ver
	c.st.write(d, len(c.buf))
	c.burst++
	if c.burst == flushEvery {
		c.burst = 0
		c.flush(ctx)
	}
}

// flush ends a burst and times the deferred-mirror window.
func (c *oltpClient) flush(ctx context.Context) {
	c.st.attempted++
	start := time.Now()
	if err := c.io.Flush(ctx); err != nil {
		c.st.failed++
		return
	}
	c.st.flushLat.add(time.Since(start))
}

// expect reports the version block blk of the client's region should
// hold.
func (c *oltpClient) expect(blk int64) uint64 { return c.ver[blk-c.base] }

// opBlocks is the stream op size: 64 blocks, 256 KiB.
const opBlocks = 64

// streamClient writes and reads its region [base, base+n) sequentially
// in 256 KiB ops. A write pass stamps every block with the pass's
// version; a read pass checks every byte against the last write pass.
type streamClient struct {
	io     blockIO
	bodies bodies
	base   int64
	n      int64
	id     uint64
	passes uint64
	ver    uint64 // version of the last completed write pass
	buf    []byte
	burst  int
	st     fgStats
}

func newStreamClient(io blockIO, bs bodies, base, n int64, id uint64) *streamClient {
	return &streamClient{io: io, bodies: bs, base: base, n: n, id: id, buf: make([]byte, opBlocks*len(bs[0]))}
}

func (c *streamClient) writePass(ctx context.Context) {
	c.passes++
	ver := c.id<<40 | c.passes
	bsz := len(c.bodies[0])
	for i := 0; i < opBlocks; i++ {
		c.bodies.stamp(c.buf[i*bsz:(i+1)*bsz], 0, ver)
	}
	ok := true
	for b := c.base; b < c.base+c.n; b += opBlocks {
		for i := 0; i < opBlocks; i++ {
			stampHdr(c.buf[i*bsz:], b+int64(i), ver)
		}
		c.st.attempted++
		start := time.Now()
		err := c.io.WriteBlocks(ctx, b, c.buf)
		d := time.Since(start)
		if err != nil {
			c.st.failed++
			ok = false
			continue
		}
		c.st.write(d, len(c.buf))
		c.burst++
		if c.burst == flushEvery {
			c.burst = 0
			c.st.attempted++
			start := time.Now()
			if err := c.io.Flush(ctx); err != nil {
				c.st.failed++
				continue
			}
			c.st.flushLat.add(time.Since(start))
		}
	}
	c.ver = ver
	if !ok {
		c.ver = unknownVer
	}
}

func (c *streamClient) readPass(ctx context.Context) {
	bsz := len(c.bodies[0])
	for b := c.base; b < c.base+c.n; b += opBlocks {
		c.st.attempted++
		start := time.Now()
		err := c.io.ReadBlocks(ctx, b, c.buf)
		d := time.Since(start)
		if err != nil {
			c.st.failed++
			continue
		}
		c.st.read(d, len(c.buf))
		for i := 0; i < opBlocks; i++ {
			if !c.bodies.check(c.buf[i*bsz:(i+1)*bsz], b+int64(i), c.ver) {
				c.st.wrong++
			}
		}
	}
}

func (c *streamClient) expect(int64) uint64 { return c.ver }
