package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/cdd"
	"repro/internal/disk"
	"repro/internal/raid"
	"repro/internal/store"
)

type fakeDev struct{}

func (fakeDev) BlockSize() int                                             { return blockSize }
func (fakeDev) NumBlocks() int64                                           { return 8 }
func (fakeDev) ReadBlocks(context.Context, int64, []byte) error            { return nil }
func (fakeDev) WriteBlocks(context.Context, int64, []byte) error           { return nil }
func (fakeDev) WriteBlocksBackground(context.Context, int64, []byte) error { return nil }
func (fakeDev) Flush(context.Context) error                                { return nil }
func (fakeDev) Healthy() bool                                              { return true }

type fakeVec struct{}

func (fakeVec) ReadBlocksVec(context.Context, int64, [][]byte) error  { return nil }
func (fakeVec) WriteBlocksVec(context.Context, int64, [][]byte) error { return nil }

type fakeQ struct{}

func (fakeQ) QueueBacklog() time.Duration { return 0 }

type fakeB struct{}

func (fakeB) BgQueueBacklog() time.Duration { return 0 }

// optional reports which optional device interfaces d implements.
func optional(d raid.Dev) [3]bool {
	_, v := d.(raid.VecDev)
	_, q := d.(raid.QueueReporter)
	_, b := d.(raid.BgQueueReporter)
	return [3]bool{v, q, b}
}

func TestDecoratorsForwardOptionalInterfaces(t *testing.T) {
	tr := newTracer(blockSize)
	devs := []raid.Dev{
		fakeDev{},
		struct {
			fakeDev
			fakeVec
		}{},
		struct {
			fakeDev
			fakeQ
		}{},
		struct {
			fakeDev
			fakeB
		}{},
		struct {
			fakeDev
			fakeVec
			fakeQ
		}{},
		struct {
			fakeDev
			fakeVec
			fakeB
		}{},
		struct {
			fakeDev
			fakeQ
			fakeB
		}{},
		struct {
			fakeDev
			fakeVec
			fakeQ
			fakeB
		}{},
		disk.New(nil, "d", store.NewMem(blockSize, 8), disk.DefaultModel()),
		(&cdd.NodeClient{}).Dev(0),
	}
	seen := map[[3]bool]bool{}
	for i, d := range devs {
		want := optional(d)
		seen[want] = true
		if got := optional(tr.wrapDev(d, 0, 0)); got != want {
			t.Errorf("device %d (%T): wrapped implements %v, want %v", i, d, got, want)
		}
	}
	if len(seen) != 8 {
		t.Fatalf("covered %d of 8 interface combinations", len(seen))
	}

	nt := &nodeTrace{}
	if _, ok := tr.wrapStore(store.NewMem(blockSize, 8), nt).(store.Blanker); !ok {
		t.Error("wrapped store.Mem does not implement store.Blanker")
	}
	plain := struct{ store.BlockStore }{store.NewMem(blockSize, 8)}
	if _, ok := tr.wrapStore(plain, nt).(store.Blanker); ok {
		t.Error("wrapped non-blanking store implements store.Blanker")
	}

	// disk.Replace must blank the store through the decorator, keeping
	// the decorator in place.
	tr.setWindow(true)
	d := disk.New(nil, "d", tr.wrapStore(store.NewMem(blockSize, 8), nt), disk.DefaultModel())
	ctx := context.Background()
	buf := make([]byte, blockSize)
	buf[0] = 7
	if err := d.WriteBlocks(ctx, 3, buf); err != nil {
		t.Fatal(err)
	}
	if err := d.Replace(); err != nil {
		t.Fatal(err)
	}
	ops := tr.storeOps.Load()
	if err := d.ReadBlocks(ctx, 3, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Error("replaced disk still holds the old block")
	}
	if tr.storeOps.Load() != ops+1 {
		t.Error("replace swapped the store decorator out")
	}
}

// diskCalls runs a fixed, seeded op sequence on a freshly built stage and
// returns every disk's read and write counts.
func diskCalls(t *testing.T, tr *tracer, grown bool, seed uint64) [][4]int64 {
	t.Helper()
	ctx := context.Background()
	st, err := build(ctx, env{seed: seed, t: tr}, grown, false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.r.close()
	io := st.foreground(tr)
	tr.setWindow(true)
	if grown {
		n := st.m.wsLo / 2 / opBlocks * opBlocks
		c := newStreamClient(io, st.bodies, 0, n, 1)
		c.writePass(ctx)
		c.readPass(ctx)
		if c.st.failed+c.st.wrong > 0 {
			t.Fatalf("stream pass: %d failed, %d wrong", c.st.failed, c.st.wrong)
		}
	} else {
		half := st.m.wsLo / 2
		cs := []*oltpClient{
			newOLTPClient(io, st.bodies, 0, half, 1, seed),
			newOLTPClient(io, st.bodies, half, half, 2, seed),
		}
		for i := 0; i < 3000; i++ {
			cs[i%2].step(ctx, true)
		}
		for _, c := range cs {
			if c.st.failed+c.st.wrong > 0 {
				t.Fatalf("oltp: %d failed, %d wrong", c.st.failed, c.st.wrong)
			}
		}
	}
	if err := st.fg.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	var out [][4]int64
	for _, ds := range st.r.disks {
		for _, d := range ds {
			r, w, br, bw := d.Stats()
			out = append(out, [4]int64{r, w, br, bw})
		}
	}
	return out
}

func TestDecoratorsIssueSameDeviceCalls(t *testing.T) {
	for _, grown := range []bool{false, true} {
		plain := diskCalls(t, nil, grown, 7)
		traced := diskCalls(t, newTracer(blockSize), grown, 7)
		if !reflect.DeepEqual(plain, traced) {
			t.Errorf("grown=%v: per-disk reads/writes differ:\nplain  %v\ntraced %v", grown, plain, traced)
		}
	}
}

// exactCounts are the per-layer metrics that must repeat exactly for one
// seed.
var exactCounts = []string{
	"core.dev_calls_per_op.read",
	"core.dev_calls_per_op.write",
	"core.verify_dev_calls_per_block",
	"raid.rs.dev_calls_per_stripe",
	"intent.dirty_blocks",
}

func tracedCounts(t *testing.T, name string, seed uint64) map[string]float64 {
	t.Helper()
	tr := newTracer(blockSize)
	res, err := workloads[name](context.Background(), env{seed: seed, dur: 2 * time.Second, t: tr, setups: 1, cycles: 1})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.wrong+res.failed > 0 {
		t.Fatalf("%s: %d wrong, %d failed", name, res.wrong, res.failed)
	}
	m := map[string]float64{}
	tr.layerMetrics(m)
	for k, v := range res.layer {
		m[k] = v
	}
	return m
}

func TestCountsRepeatForOneSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, name := range []string{"oltp", "stream-grown", "repair"} {
		a, b := tracedCounts(t, name, 5), tracedCounts(t, name, 5)
		for _, k := range exactCounts {
			if a[k] == 0 || a[k] != b[k] {
				t.Errorf("%s: %s = %v then %v, want one non-zero value", name, k, a[k], b[k])
			}
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the reported metric names and units
// in step with the declaration at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(what string, list []struct{ Name, Unit string }, want map[string]string) {
		got := map[string]string{}
		for _, m := range list {
			got[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s metrics differ from BENCHMARK.json:\ncode %v\njson %v", what, want, got)
		}
	}
	check("end-to-end", decl.EndToEnd, endToEnd)
	check("per-layer", decl.PerLayer, perLayer)
	// Every declared workload runs; stream-grown runs but is not declared
	// (see README.md).
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json declares unknown workload %q", w.Name)
		}
	}
	sort.Strings(names)
	if want := []string{"oltp", "repair"}; !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json declares %v, want %v", names, want)
	}
}
