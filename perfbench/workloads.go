package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/intent"
	"repro/internal/layout"
	"repro/internal/raid"
)

// env is one measured pass of a workload.
type env struct {
	seed   uint64
	dur    time.Duration // foreground window (oltp, stream-grown) or maintenance budget (repair)
	t      *tracer       // nil: untraced
	setups int           // set-ups to time; the last one is measured
	cycles int           // quiet maintenance cycles after the oltp and stream-grown windows
}

// result is what a pass reports.
type result struct {
	attempted, failed, wrong int64
	e2e                      map[string]float64
	layer                    map[string]float64
}

// stage is a built array set: the foreground engine (configured as
// raidxfs mounts it), the maintenance engine (as the raidxnode
// coordinator builds it, with an intent log) and the rs(4,2) array on
// every node's second disk.
type stage struct {
	r      *rig
	fg     *core.RAIDx
	m      *maint
	bodies bodies
}

// build sets up a stage. grown selects the stream-grown geometry: an
// OSM(4,1) base grown by two nodes to six columns at generation 1.
// shared gives the foreground the maintenance engine itself (repair).
func build(ctx context.Context, e env, grown, shared bool) (st *stage, err error) {
	r, err := newRig(ctx, e.t)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	devs := make([]raid.Dev, numNodes)
	cols := make([]colRef, numNodes)
	il := intent.NewLog(numNodes, diskBlocks, 0)
	var fg, ma *core.RAIDx
	if grown {
		ep, err := layout.NewEpoch(layout.NewOSM(4, 1, diskBlocks)).Grow(2)
		if err != nil {
			return nil, err
		}
		for d := range devs {
			cols[d] = colRef{ep.NodeOf(d), ep.LocalOf(d)}
			devs[d] = r.devs[cols[d].local][cols[d].node]
		}
		// The nodes enforce generation 1 and the clients tag their I/O
		// with it, as after a completed grow.
		for _, c := range r.clients {
			if _, err := c.EpochSet(ctx, ep.Gen()); err != nil {
				return nil, err
			}
			c.SetArrayEpoch(ep.Gen())
		}
		if fg, err = core.NewAtEpoch(devs, ep, core.Options{}); err != nil {
			return nil, err
		}
		if ma, err = core.NewAtEpoch(devs, ep, core.Options{Intent: il}); err != nil {
			return nil, err
		}
	} else {
		for n := range devs {
			cols[n] = colRef{n, 0}
			devs[n] = r.devs[0][n]
		}
		if fg, err = core.New(devs, numNodes, 1, core.Options{}); err != nil {
			return nil, err
		}
		if ma, err = core.New(devs, numNodes, 1, core.Options{Intent: il}); err != nil {
			return nil, err
		}
	}
	if shared {
		fg = ma
	}
	rs, err := raid.NewRS(r.devs[1], 2)
	if err != nil {
		return nil, err
	}
	rsCols := make([]colRef, numNodes)
	for n := range rsCols {
		rsCols[n] = colRef{n, 1}
	}
	bs := newBodies(blockSize)
	wsLo := ma.Blocks() * 3 / 4
	m := &maint{
		r: r, t: e.t, arr: ma, il: il, cols: cols, rs: rs, rsCols: rsCols, bodies: bs,
		rng:  rand.New(rand.NewSource(int64(e.seed))),
		wsLo: wsLo, wsHi: ma.Blocks(), wsVer: make([]uint64, ma.Blocks()-wsLo),
	}
	zero := func(int64) uint64 { return 0 }
	if err := fill(ctx, ma, bs, 0, ma.Blocks(), zero); err != nil {
		return nil, err
	}
	if err := fill(ctx, rs, bs, 0, rs.Blocks(), zero); err != nil {
		return nil, err
	}
	return &stage{r: r, fg: fg, m: m, bodies: bs}, nil
}

// setUp builds e.setups stages, closing all but the last, and returns
// it with the median set-up time.
func setUp(ctx context.Context, e env, grown, shared bool) (*stage, float64, error) {
	var times []float64
	var st *stage
	for i := 0; i < max(e.setups, 1); i++ {
		if st != nil {
			st.r.close()
			st = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if st, err = build(ctx, e, grown, shared); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return st, median(times), nil
}

// foreground returns the array the load generators drive: the engine,
// or the core decorator around it in the traced run.
func (st *stage) foreground(t *tracer) blockIO {
	if t == nil {
		return st.fg
	}
	return tracedIO{st.fg, t}
}

// tracedIO is the core decorator for foreground array ops.
type tracedIO struct {
	a blockIO
	t *tracer
}

func (x tracedIO) ReadBlocks(ctx context.Context, b int64, p []byte) error {
	return x.t.op(ctx, kRead, func(ctx context.Context) error { return x.a.ReadBlocks(ctx, b, p) })
}

func (x tracedIO) WriteBlocks(ctx context.Context, b int64, p []byte) error {
	return x.t.op(ctx, kWrite, func(ctx context.Context) error { return x.a.WriteBlocks(ctx, b, p) })
}

func (x tracedIO) Flush(ctx context.Context) error { return x.a.Flush(ctx) }

// probe samples process-wide costs over a measured window.
type probe struct {
	start      time.Time
	cpu0       time.Duration
	rm0        []metrics.Sample
	stop       chan struct{}
	done       sync.WaitGroup
	heapPeak   atomic.Uint64
	cpu        time.Duration
	allocs     uint64
	allocBytes uint64
	gcCycles   uint64
}

var runtimeMetricNames = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/gc/heap/live:bytes"}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// startProbe begins a window; the peak live heap is sampled every 10 ms.
func startProbe() *probe {
	p := &probe{start: time.Now(), cpu0: cpuTime(), rm0: readRuntime(), stop: make(chan struct{})}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			live := readRuntime()[3].Value.Uint64()
			if live > p.heapPeak.Load() {
				p.heapPeak.Store(live)
			}
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

func (p *probe) end() {
	p.cpu = cpuTime() - p.cpu0
	rm := readRuntime()
	p.allocs = rm[0].Value.Uint64() - p.rm0[0].Value.Uint64()
	p.allocBytes = rm[1].Value.Uint64() - p.rm0[1].Value.Uint64()
	p.gcCycles = rm[2].Value.Uint64() - p.rm0[2].Value.Uint64()
	close(p.stop)
	p.done.Wait()
}

// windowSpan is the width of the oltp and repair measurement windows.
const windowSpan = time.Second

// tailSamples is the least number of samples a window needs for its p99
// to count: ten beyond the percentile.
const tailSamples = 1000

// fgMetrics fills the foreground end-to-end metrics. Rates are medians
// over the measurement windows wins (window i lasted wins[i]); a p99 is
// the median of the per-window p99s, so one slow second on a shared
// host moves neither. opBytes is the size of one op.
func fgMetrics(res *result, s *fgStats, wins []time.Duration, opBytes int) {
	reads, writes := byWindow(s.readLat, s.readWin, len(wins)), byWindow(s.writeLat, s.writeWin, len(wins))
	var ops, rmb, wmb []float64
	for i, d := range wins {
		sec := d.Seconds()
		ops = append(ops, float64(len(reads[i])+len(writes[i]))/sec)
		rmb = append(rmb, float64(len(reads[i])*opBytes)/sec/1e6)
		wmb = append(wmb, float64(len(writes[i])*opBytes)/sec/1e6)
	}
	res.e2e["ops_per_s"] = median(ops)
	res.e2e["read_mb_s"] = median(rmb)
	res.e2e["write_mb_s"] = median(wmb)
	res.e2e["read_p50_us"] = s.readLat.pctUs(0.5)
	res.e2e["read_p99_us"] = tail(s.readLat, reads)
	res.e2e["write_p50_us"] = s.writeLat.pctUs(0.5)
	res.e2e["write_p99_us"] = tail(s.writeLat, writes)
	res.e2e["redundancy_lag_ms"] = s.flushLat.pctUs(0.5) / 1e3
	res.attempted += s.attempted
	res.failed += s.failed
	res.wrong += s.wrong
}

// byWindow splits samples by window; samples outside [0, n) are dropped.
func byWindow(all samples, win []int32, n int) []samples {
	out := make([]samples, n)
	for i, d := range all {
		if w := int(win[i]); w >= 0 && w < n {
			out[w] = append(out[w], d)
		}
	}
	return out
}

// tail is the median over windows of each window's p99, counting only
// windows with tailSamples samples; the p99 of all samples when no
// window has that many.
func tail(all samples, by []samples) float64 {
	var p99 []float64
	for _, w := range by {
		if len(w) >= tailSamples {
			p99 = append(p99, w.pctUs(0.99))
		}
	}
	if len(p99) == 0 {
		return all.pctUs(0.99)
	}
	return median(p99)
}

// probeMetrics fills the process-wide costs of a window with ops
// foreground ops.
func probeMetrics(res *result, p *probe, ops int) {
	res.e2e["heap_peak_mb"] = float64(p.heapPeak.Load()) / 1e6
	if ops > 0 {
		res.layer["runtime.cpu_us_per_op"] = float64(p.cpu.Microseconds()) / float64(ops)
		res.layer["runtime.allocs_per_op"] = float64(p.allocs) / float64(ops)
		res.layer["runtime.alloc_bytes_per_op"] = float64(p.allocBytes) / float64(ops)
	}
	res.layer["runtime.gc_cycles"] = float64(p.gcCycles)
}

// fixedWindows returns the full windowSpan windows that fit in d.
func fixedWindows(d time.Duration) []time.Duration {
	w := make([]time.Duration, max(int(d/windowSpan), 1))
	for i := range w {
		w[i] = min(windowSpan, d)
	}
	return w
}

// clock tags samples with the windowSpan window they land in.
func clock(start time.Time) func() int32 {
	return func() int32 { return int32(time.Since(start) / windowSpan) }
}

// epilogue runs the quiet maintenance cycles and the final check.
func epilogue(ctx context.Context, st *stage, res *result, cycles int) error {
	for i := 0; i < cycles; i++ {
		res.attempted++
		if err := st.m.cycle(ctx); err != nil {
			return err
		}
	}
	return st.m.final(ctx)
}

func finish(st *stage, res *result, setupS float64) {
	st.m.metrics(res.e2e)
	res.e2e["setup_s"] = setupS
	// The intent figures come from the first cycle's outages, which are
	// the same for one seed however many cycles the run fits in.
	first := min(len(st.m.dirtyBlocks), resyncsPerCycle)
	res.layer["intent.dirty_blocks"] = median(st.m.dirtyBlocks[:first])
	res.layer["intent.copied_per_written"] = median(st.m.copiedPerWritten[:first])
	res.wrong += st.m.wrong
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// runOLTP: two clients, each running workload.OLTP closed-loop over its
// own half of a gen-0 array for e.dur, then the quiet maintenance
// cycles.
func runOLTP(ctx context.Context, e env) (*result, error) {
	st, setupS, err := setUp(ctx, e, false, false)
	if err != nil {
		return nil, err
	}
	defer st.r.close()
	io := st.foreground(e.t)
	half := st.m.wsLo / 2
	cs := []*oltpClient{
		newOLTPClient(io, st.bodies, 0, half, 1, e.seed),
		newOLTPClient(io, st.bodies, half, half, 2, e.seed),
	}
	st.m.fgExpect = func(b int64) uint64 {
		if b < half {
			return cs[0].expect(b)
		}
		return cs[1].expect(b)
	}
	run := func(d time.Duration) {
		var wg sync.WaitGroup
		start := time.Now()
		deadline := start.Add(d)
		for _, c := range cs {
			c.st.win = clock(start)
			wg.Add(1)
			go func(c *oltpClient) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					c.step(ctx, true)
				}
			}(c)
		}
		wg.Wait()
	}
	// Warm up (untimed), then measure.
	run(warmup(e.dur))
	res := newResult()
	for _, c := range cs {
		res.attempted += c.st.attempted
		res.failed += c.st.failed
		res.wrong += c.st.wrong
		c.st = fgStats{}
	}
	p := startProbe()
	e.t.setWindow(true)
	run(e.dur)
	e.t.setWindow(false)
	p.end()
	var all fgStats
	for _, c := range cs {
		all.merge(&c.st)
	}
	fgMetrics(res, &all, fixedWindows(e.dur), blockSize)
	probeMetrics(res, p, len(all.readLat)+len(all.writeLat))
	if err := epilogue(ctx, st, res, e.cycles); err != nil {
		return res, err
	}
	finish(st, res, setupS)
	return res, nil
}

func warmup(d time.Duration) time.Duration { return max(d/20, 300*time.Millisecond) }

// runStream: two clients on the grown array alternate a sequential
// 256 KiB write phase and a sequential 256 KiB read phase over disjoint
// regions, in whole passes, then the quiet maintenance cycles.
func runStream(ctx context.Context, e env) (*result, error) {
	st, setupS, err := setUp(ctx, e, true, false)
	if err != nil {
		return nil, err
	}
	defer st.r.close()
	io := st.foreground(e.t)
	n := st.m.wsLo / 2 / opBlocks * opBlocks
	cs := []*streamClient{
		newStreamClient(io, st.bodies, 0, n, 1),
		newStreamClient(io, st.bodies, n, n, 2),
	}
	st.m.fgExpect = func(b int64) uint64 {
		if b < 2*n {
			return cs[b/n].expect(b)
		}
		return 0
	}
	// phase runs passes on both clients in step, one pass each at a time,
	// until d has elapsed, and returns the phase's wall time. Both clients
	// always complete the same number of passes.
	phase := func(d time.Duration, write bool) time.Duration {
		start := time.Now()
		for {
			var wg sync.WaitGroup
			for _, c := range cs {
				wg.Add(1)
				go func(c *streamClient) {
					defer wg.Done()
					if write {
						c.writePass(ctx)
					} else {
						c.readPass(ctx)
					}
				}(c)
			}
			wg.Wait()
			if time.Since(start) >= d {
				return time.Since(start)
			}
		}
	}
	phase(0, true) // warm-up: one pass each way
	phase(0, false)
	res := newResult()
	for _, c := range cs {
		res.attempted += c.st.attempted
		res.failed += c.st.failed
		res.wrong += c.st.wrong
		c.st = fgStats{}
	}
	rounds := streamRounds(e.dur)
	var round int32
	for _, c := range cs {
		c.st.win = func() int32 { return round }
	}
	var wins []time.Duration
	var wMBs, rMBs []float64
	p := startProbe()
	e.t.setWindow(true)
	for i := 0; i < rounds; i++ {
		round = int32(i)
		var w0, r0 int64
		for _, c := range cs {
			w0 += c.st.writeBytes
			r0 += c.st.readBytes
		}
		wd := phase(e.dur/time.Duration(2*rounds), true)
		rd := phase(e.dur/time.Duration(2*rounds), false)
		var w1, r1 int64
		for _, c := range cs {
			w1 += c.st.writeBytes
			r1 += c.st.readBytes
		}
		wins = append(wins, wd+rd)
		wMBs = append(wMBs, mbps(w1-w0, wd))
		rMBs = append(rMBs, mbps(r1-r0, rd))
	}
	e.t.setWindow(false)
	p.end()
	var all fgStats
	for _, c := range cs {
		all.merge(&c.st)
	}
	fgMetrics(res, &all, wins, opBlocks*blockSize)
	probeMetrics(res, p, len(all.readLat)+len(all.writeLat))
	// Each direction's rate is over its own phases.
	res.e2e["read_mb_s"] = median(rMBs)
	res.e2e["write_mb_s"] = median(wMBs)
	if err := epilogue(ctx, st, res, e.cycles); err != nil {
		return res, err
	}
	finish(st, res, setupS)
	return res, nil
}

// streamRounds is the number of write/read phase pairs in d: phases of
// about half a second, so a garbage-collection cycle or a slow spell of
// the host falls in few of the rounds the medians are taken over.
func streamRounds(d time.Duration) int { return max(int(d/time.Second), 1) }

// repairCycles is the number of maintenance cycles repair runs for a
// budget of d: a fixed count, so every run with one budget does the
// same work. A cycle takes about six seconds on the test host.
func repairCycles(d time.Duration) int { return max(int(d/(6*time.Second)), 1) }

// runRepair: one foreground client runs the oltp mix on a gen-0 mirror
// array while a second goroutine runs repairCycles(e.dur) maintenance
// cycles.
func runRepair(ctx context.Context, e env) (*result, error) {
	st, setupS, err := setUp(ctx, e, false, true)
	if err != nil {
		return nil, err
	}
	defer st.r.close()
	io := st.foreground(e.t)
	c := newOLTPClient(io, st.bodies, 0, st.m.wsLo, 1, e.seed)
	st.m.fgExpect = c.expect
	g := newGate()
	st.m.g = g
	var stop atomic.Bool
	loop := func() {
		for !stop.Load() {
			g.mu.RLock()
			c.step(ctx, g.writes.Load())
			g.mu.RUnlock()
		}
	}
	background := func() chan struct{} {
		stop.Store(false)
		done := make(chan struct{})
		go func() { loop(); close(done) }()
		return done
	}
	// Warm up (untimed), then measure.
	done := background()
	time.Sleep(warmup(e.dur))
	stop.Store(true)
	<-done
	res := newResult()
	res.attempted += c.st.attempted
	res.failed += c.st.failed
	res.wrong += c.st.wrong
	c.st = fgStats{}

	p := startProbe()
	start := time.Now()
	c.st.win = clock(start)
	e.t.setWindow(true)
	done = background()
	var merr error
	for i := 0; i < repairCycles(e.dur) && merr == nil; i++ {
		res.attempted++
		merr = st.m.cycle(ctx)
	}
	stop.Store(true)
	<-done
	e.t.setWindow(false)
	p.end()
	elapsed := time.Since(start)
	fgMetrics(res, &c.st, fixedWindows(elapsed), blockSize)
	ops := len(c.st.readLat) + len(c.st.writeLat)
	probeMetrics(res, p, ops)
	// The client's mix changes with the maintenance phase (no writes
	// while the mirror array is under repair), so rates are over the
	// whole window, which holds the same phases in every run.
	res.e2e["ops_per_s"] = float64(ops) / elapsed.Seconds()
	res.e2e["read_mb_s"] = float64(c.st.readBytes) / elapsed.Seconds() / 1e6
	res.e2e["write_mb_s"] = float64(c.st.writeBytes) / elapsed.Seconds() / 1e6
	if merr != nil {
		return res, merr
	}
	if err := st.m.final(ctx); err != nil {
		return res, err
	}
	finish(st, res, setupS)
	return res, nil
}
