package main

import (
	"context"
	"encoding/binary"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdd"
	"repro/internal/obs"
	"repro/internal/raid"
	"repro/internal/store"
	"repro/internal/transport"
)

// The traced run wraps each layer's public interface in a timing
// decorator defined here, so the program under test is unchanged:
//
//   - core: the engine's array and maintenance calls (tracer.op, span);
//   - cdd client: every raid.Dev the engines use (tracedDev);
//   - cdd node: Manager.Handle, served through transport.ServeWith with
//     the options ListenAndServe uses (tracer.handler);
//   - store: the BlockStore under each disk.New (tracedStore).
//
// A core op puts an opRec in its context; every device call made under
// that context records its interval there, so the op's self time is its
// span minus the union of the device calls it covers. A node serves one
// connection's requests one at a time, so the node records which handle
// is active and the store decorator charges its time to it.

// Op kinds at the device and node boundary.
const (
	kRead   = "read"
	kWrite  = "write"
	kBG     = "bg-write"
	kFlush  = "flush"
	kHealth = "health"
	kCtl    = "ctl"
)

type recKey struct{}

// opRec collects the device-call intervals of one traced core call.
type opRec struct {
	mu    sync.Mutex
	spans [][2]int64
}

func (r *opRec) add(s, e int64) {
	r.mu.Lock()
	r.spans = append(r.spans, [2]int64{s, e})
	r.mu.Unlock()
}

// covered returns how much of [s, e] the union of the recorded spans
// covers, and how many spans were recorded.
func (r *opRec) covered(s, e int64) (int64, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := r.spans
	sort.Slice(sp, func(i, j int) bool { return sp[i][0] < sp[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range sp {
		a, b := max(x[0], s), min(x[1], e)
		if a >= b {
			continue
		}
		if open && a <= curE {
			curE = max(curE, b)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = a, b, true
	}
	if open {
		total += curE - curS
	}
	return total, len(sp)
}

// maintAgg accumulates one maintenance call kind.
type maintAgg struct {
	calls, units int64
	self         samples
}

type sizeKey struct {
	kind  string
	bytes int
}

// sizePair holds client call and node handle times for one op shape.
type sizePair struct{ client, node samples }

type bgKey struct {
	node, disk int
	block      int64
}

// nodeTrace is one node's handle-to-store attribution slot.
type nodeTrace struct {
	active atomic.Pointer[handleRec]
}

type handleRec struct{ store atomic.Int64 }

// tracer is the traced run's span store. Spans stay in memory and are
// reduced to metrics when the run ends.
type tracer struct {
	base time.Time
	reg  *obs.Registry // client registry: cdd.retries
	bs   int

	mu        sync.Mutex
	coreSelf  map[string]samples
	coreOps   map[string]int64
	coreCalls map[string]int64
	maint     map[string]*maintAgg
	call      map[string]samples
	calls     map[string]int64
	bytes     map[string]int64
	errors    int64
	sized     map[sizeKey]*sizePair
	handle    map[string]samples
	nodeSelf  map[string]samples
	bgLag     samples
	pending   map[bgKey][]int64

	// window is on while the measured foreground window runs: per-call
	// distributions and counters cover that window only, while
	// maintenance spans record their own device calls at any time.
	window atomic.Bool

	inflight, inflightMax atomic.Int64

	storeNs    [2]atomic.Int64 // read, write
	storeBytes [2]atomic.Int64
	storeOps   atomic.Int64
}

func newTracer(bs int) *tracer {
	return &tracer{
		base:      time.Now(),
		reg:       obs.NewRegistry(),
		bs:        bs,
		coreSelf:  map[string]samples{},
		coreOps:   map[string]int64{},
		coreCalls: map[string]int64{},
		maint:     map[string]*maintAgg{},
		call:      map[string]samples{},
		calls:     map[string]int64{},
		bytes:     map[string]int64{},
		sized:     map[sizeKey]*sizePair{},
		handle:    map[string]samples{},
		nodeSelf:  map[string]samples{},
		pending:   map[bgKey][]int64{},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) setWindow(on bool) {
	if t != nil {
		t.window.Store(on)
	}
}

// op runs one foreground array call as a traced core op. A nil tracer
// just runs f.
func (t *tracer) op(ctx context.Context, kind string, f func(context.Context) error) error {
	if t == nil {
		return f(ctx)
	}
	rec := &opRec{}
	ctx = context.WithValue(ctx, recKey{}, rec)
	s := t.now()
	err := f(ctx)
	e := t.now()
	cov, calls := rec.covered(s, e)
	if !t.window.Load() {
		return err
	}
	t.mu.Lock()
	t.coreSelf[kind] = append(t.coreSelf[kind], (e-s)-cov)
	t.coreOps[kind]++
	t.coreCalls[kind] += int64(calls)
	t.mu.Unlock()
	return err
}

// span runs one maintenance call (verify, rebuild, ...) covering units
// blocks or stripes, recording its device calls and self time. A nil
// tracer just runs f.
func (t *tracer) span(ctx context.Context, kind string, units int64, f func(context.Context) error) error {
	if t == nil {
		return f(ctx)
	}
	rec := &opRec{}
	ctx = context.WithValue(ctx, recKey{}, rec)
	s := t.now()
	err := f(ctx)
	e := t.now()
	cov, calls := rec.covered(s, e)
	t.mu.Lock()
	m := t.maint[kind]
	if m == nil {
		m = &maintAgg{}
		t.maint[kind] = m
	}
	m.calls += int64(calls)
	m.units += units
	m.self = append(m.self, (e-s)-cov)
	t.mu.Unlock()
	return err
}

// begin opens a device call.
func (t *tracer) begin() int64 {
	n := t.inflight.Add(1)
	for t.window.Load() {
		m := t.inflightMax.Load()
		if n <= m || t.inflightMax.CompareAndSwap(m, n) {
			break
		}
	}
	return t.now()
}

// devCall closes a device call opened at s.
func (t *tracer) devCall(ctx context.Context, kind string, n int, s int64, err error) {
	e := t.now()
	t.inflight.Add(-1)
	if rec, ok := ctx.Value(recKey{}).(*opRec); ok {
		rec.add(s, e)
	}
	if !t.window.Load() {
		return
	}
	t.mu.Lock()
	t.call[kind] = append(t.call[kind], e-s)
	t.calls[kind]++
	t.bytes[kind] += int64(n)
	if err != nil {
		t.errors++
	}
	if kind != kBG {
		p := t.sizedLocked(kind, n)
		p.client = append(p.client, e-s)
	}
	t.mu.Unlock()
}

func (t *tracer) sizedLocked(kind string, n int) *sizePair {
	k := sizeKey{kind, n}
	p := t.sized[k]
	if p == nil {
		p = &sizePair{}
		t.sized[k] = p
	}
	return p
}

// tracedDev is the cdd client decorator: a raid.Dev that times every
// call into the wrapped device.
type tracedDev struct {
	inner      raid.Dev
	t          *tracer
	node, disk int
}

func (d *tracedDev) BlockSize() int   { return d.inner.BlockSize() }
func (d *tracedDev) NumBlocks() int64 { return d.inner.NumBlocks() }
func (d *tracedDev) Healthy() bool    { return d.inner.Healthy() }

func (d *tracedDev) ReadBlocks(ctx context.Context, b int64, buf []byte) error {
	s := d.t.begin()
	err := d.inner.ReadBlocks(ctx, b, buf)
	d.t.devCall(ctx, kRead, len(buf), s, err)
	return err
}

func (d *tracedDev) WriteBlocks(ctx context.Context, b int64, data []byte) error {
	s := d.t.begin()
	err := d.inner.WriteBlocks(ctx, b, data)
	d.t.devCall(ctx, kWrite, len(data), s, err)
	return err
}

func (d *tracedDev) WriteBlocksBackground(ctx context.Context, b int64, data []byte) error {
	s := d.t.begin()
	// Recorded before the push so the node cannot apply it first.
	if d.t.window.Load() {
		k := bgKey{d.node, d.disk, b}
		d.t.mu.Lock()
		d.t.pending[k] = append(d.t.pending[k], s)
		d.t.mu.Unlock()
	}
	err := d.inner.WriteBlocksBackground(ctx, b, data)
	d.t.devCall(ctx, kBG, len(data), s, err)
	return err
}

func (d *tracedDev) Flush(ctx context.Context) error {
	s := d.t.begin()
	err := d.inner.Flush(ctx)
	d.t.devCall(ctx, kFlush, 0, s, err)
	return err
}

// tracedVec forwards raid.VecDev through the decorator.
type tracedVec struct {
	d *tracedDev
	v raid.VecDev
}

func segLen(segs [][]byte) int {
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	return n
}

func (x tracedVec) ReadBlocksVec(ctx context.Context, b int64, segs [][]byte) error {
	s := x.d.t.begin()
	err := x.v.ReadBlocksVec(ctx, b, segs)
	x.d.t.devCall(ctx, kRead, segLen(segs), s, err)
	return err
}

func (x tracedVec) WriteBlocksVec(ctx context.Context, b int64, segs [][]byte) error {
	s := x.d.t.begin()
	err := x.v.WriteBlocksVec(ctx, b, segs)
	x.d.t.devCall(ctx, kWrite, segLen(segs), s, err)
	return err
}

// The decorator exposes exactly the optional interfaces the wrapped
// device implements, one type per combination.
type (
	devV struct {
		*tracedDev
		tracedVec
	}
	devQ struct {
		*tracedDev
		raid.QueueReporter
	}
	devB struct {
		*tracedDev
		raid.BgQueueReporter
	}
	devVQ struct {
		*tracedDev
		tracedVec
		raid.QueueReporter
	}
	devVB struct {
		*tracedDev
		tracedVec
		raid.BgQueueReporter
	}
	devQB struct {
		*tracedDev
		raid.QueueReporter
		raid.BgQueueReporter
	}
	devVQB struct {
		*tracedDev
		tracedVec
		raid.QueueReporter
		raid.BgQueueReporter
	}
)

// wrapDev decorates inner (disk index disk of node node) for t.
func (t *tracer) wrapDev(inner raid.Dev, node, disk int) raid.Dev {
	d := &tracedDev{inner: inner, t: t, node: node, disk: disk}
	v, isV := inner.(raid.VecDev)
	q, isQ := inner.(raid.QueueReporter)
	bq, isB := inner.(raid.BgQueueReporter)
	tv := tracedVec{d, v}
	switch {
	case isV && isQ && isB:
		return devVQB{d, tv, q, bq}
	case isV && isQ:
		return devVQ{d, tv, q}
	case isV && isB:
		return devVB{d, tv, bq}
	case isQ && isB:
		return devQB{d, q, bq}
	case isV:
		return devV{d, tv}
	case isQ:
		return devQ{d, q}
	case isB:
		return devB{d, bq}
	}
	return d
}

// tracedStore is the store decorator: a BlockStore that times every
// block access and charges it to the node's active handle.
type tracedStore struct {
	inner store.BlockStore
	t     *tracer
	nt    *nodeTrace
}

// tracedBlankStore forwards store.Blanker, so disk.Replace blanks the
// wrapped store in place instead of swapping the decorator out.
type tracedBlankStore struct {
	*tracedStore
	store.Blanker
}

func (t *tracer) wrapStore(inner store.BlockStore, nt *nodeTrace) store.BlockStore {
	s := &tracedStore{inner: inner, t: t, nt: nt}
	if b, ok := inner.(store.Blanker); ok {
		return tracedBlankStore{s, b}
	}
	return s
}

func (s *tracedStore) BlockSize() int   { return s.inner.BlockSize() }
func (s *tracedStore) NumBlocks() int64 { return s.inner.NumBlocks() }

func (s *tracedStore) ReadBlock(b int64, buf []byte) error {
	st := time.Now()
	err := s.inner.ReadBlock(b, buf)
	s.done(0, len(buf), time.Since(st))
	return err
}

func (s *tracedStore) WriteBlock(b int64, data []byte) error {
	st := time.Now()
	err := s.inner.WriteBlock(b, data)
	s.done(1, len(data), time.Since(st))
	return err
}

func (s *tracedStore) done(i, n int, d time.Duration) {
	if r := s.nt.active.Load(); r != nil {
		r.store.Add(int64(d))
	}
	if !s.t.window.Load() {
		return
	}
	s.t.storeNs[i].Add(int64(d))
	s.t.storeBytes[i].Add(int64(n))
	s.t.storeOps.Add(1)
}

// decodeOp names a CDD request and returns its target and byte count.
// Epoch-tagged ops carry an 8-byte generation ahead of the I/O header.
func decodeOp(op uint8, payload []byte, bs int) (kind string, disk int, block int64, n int) {
	off := 0
	switch op {
	case cdd.OpReadEpoch:
		op, off = cdd.OpRead, 8
	case cdd.OpWriteEpoch:
		op, off = cdd.OpWrite, 8
	case cdd.OpWriteBGEpoch:
		op, off = cdd.OpWriteBG, 8
	}
	switch op {
	case cdd.OpRead, cdd.OpWrite, cdd.OpWriteBG:
	case cdd.OpFlush:
		return kFlush, 0, 0, 0
	case cdd.OpHealth:
		return kHealth, 0, 0, 0
	default:
		return kCtl, 0, 0, 0
	}
	if len(payload) < off+16 {
		return kCtl, 0, 0, 0
	}
	h := payload[off : off+16]
	disk = int(binary.BigEndian.Uint32(h[0:4]))
	block = int64(binary.BigEndian.Uint64(h[4:12]))
	switch op {
	case cdd.OpRead:
		return kRead, disk, block, int(binary.BigEndian.Uint32(h[12:16])) * bs
	case cdd.OpWrite:
		return kWrite, disk, block, len(payload) - off - 16
	}
	return kBG, disk, block, len(payload) - off - 16
}

// handler is the node decorator around Manager.Handle.
func (t *tracer) handler(node int, nt *nodeTrace, h transport.Handler) transport.Handler {
	return func(ctx context.Context, op uint8, payload []byte) ([]byte, error) {
		kind, disk, block, n := decodeOp(op, payload, t.bs)
		rec := &handleRec{}
		owned := nt.active.CompareAndSwap(nil, rec)
		s := t.now()
		resp, err := h(ctx, op, payload)
		e := t.now()
		if owned {
			nt.active.Store(nil)
		}
		if !t.window.Load() {
			return resp, err
		}
		d := e - s
		t.mu.Lock()
		t.handle[kind] = append(t.handle[kind], d)
		if owned {
			t.nodeSelf[kind] = append(t.nodeSelf[kind], d-rec.store.Load())
		}
		switch kind {
		case kRead, kWrite, kFlush:
			p := t.sizedLocked(kind, n)
			p.node = append(p.node, d)
		case kBG:
			k := bgKey{node, disk, block}
			if q := t.pending[k]; len(q) > 0 {
				t.bgLag = append(t.bgLag, e-q[0])
				if len(q) == 1 {
					delete(t.pending, k)
				} else {
					t.pending[k] = q[1:]
				}
			}
		}
		t.mu.Unlock()
		return resp, err
	}
}

// layerMetrics reduces the recorded spans to the per-layer metrics.
func (t *tracer) layerMetrics(m map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, k := range []string{kRead, kWrite} {
		m["core.self_us."+k] = t.coreSelf[k].pctUs(0.5)
		if t.coreOps[k] > 0 {
			m["core.dev_calls_per_op."+k] = float64(t.coreCalls[k]) / float64(t.coreOps[k])
		}
	}
	if v := t.maint["verify"]; v != nil && v.units > 0 {
		m["core.verify_dev_calls_per_block"] = float64(v.calls) / float64(v.units)
	}
	if v := t.maint["rebuild"]; v != nil {
		m["core.self_s.rebuild"] = v.self.pctUs(0.5) / 1e6
	}
	if v := t.maint["rs-rebuild"]; v != nil && v.units > 0 {
		m["raid.rs.dev_calls_per_stripe"] = float64(v.calls) / float64(v.units)
		m["raid.rs.self_s.rebuild"] = v.self.pctUs(0.5) / 1e6
	}
	for _, k := range []string{kRead, kWrite, kFlush} {
		m["cdd.call_p50_us."+k] = t.call[k].pctUs(0.5)
		m["cdd.call_p99_us."+k] = t.call[k].pctUs(0.99)
	}
	m["cdd.notify_us.bg-write"] = t.call[kBG].pctUs(0.5)
	for _, k := range []string{kRead, kWrite, kBG, kFlush} {
		m["cdd.calls."+k] = float64(t.calls[k])
	}
	for _, k := range []string{kRead, kWrite, kBG} {
		m["cdd.bytes."+k] = float64(t.bytes[k])
	}
	m["cdd.inflight_max"] = float64(t.inflightMax.Load())
	m["cdd.errors"] = float64(t.errors)
	m["cdd.retries"] = float64(t.reg.Counter("cdd.retries").Value())
	for _, k := range []string{kRead, kWrite, kBG, kFlush} {
		m["cdd.node.handle_p50_us."+k] = t.handle[k].pctUs(0.5)
		m["cdd.node.self_us."+k] = t.nodeSelf[k].pctUs(0.5)
	}
	m["cdd.node.bg_apply_lag_p50_us"] = t.bgLag.pctUs(0.5)
	// Transport time per call: client call minus node handle, per op
	// shape (kind and size), weighted by the shape's client call count.
	for _, k := range []string{kRead, kWrite, kFlush} {
		var sum, w float64
		for key, p := range t.sized {
			if key.kind != k || len(p.client) == 0 || len(p.node) == 0 {
				continue
			}
			n := float64(len(p.client))
			sum += n * (p.client.pctUs(0.5) - p.node.pctUs(0.5))
			w += n
		}
		if w > 0 {
			m["transport.us_per_call."+k] = sum / w
		}
	}
	const mib = 1 << 20
	for i, k := range []string{kRead, kWrite} {
		if b := t.storeBytes[i].Load(); b > 0 {
			m["store.busy_us_per_mib."+k] = float64(t.storeNs[i].Load()) / 1e3 / (float64(b) / mib)
		}
	}
	m["store.ops"] = float64(t.storeOps.Load())
}
