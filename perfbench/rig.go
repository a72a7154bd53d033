package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/cdd"
	"repro/internal/disk"
	"repro/internal/raid"
	"repro/internal/store"
	"repro/internal/transport"
)

const (
	numNodes  = 6
	blockSize = 4096
	// diskBlocks is the size of every disk, 16 MiB, so that one
	// maintenance cycle takes a few seconds. Each node exports a
	// mirror-array disk and an rs(4,2) disk, 192 MiB in all.
	diskBlocks = 4096
	// settleTimeout bounds the wait for a device's health to change.
	settleTimeout = 5 * time.Second
)

// rig is six in-process CDD nodes, each with two store.Mem disks, reached
// over loopback TCP: through cdd.ListenAndServe and cdd.Connect when
// untraced, and through the same pieces with the layer decorators
// spliced in when traced.
type rig struct {
	disks   [][]*disk.Disk // [node][local disk]
	servers []interface{ Close() error }
	clients []*cdd.NodeClient
	remote  [][]*cdd.RemoteDev // [local disk][node]
	devs    [][]raid.Dev       // [local disk][node], as the engines see them
}

func newRig(ctx context.Context, t *tracer) (r *rig, err error) {
	r = &rig{}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	const local = 2
	for n := 0; n < numNodes; n++ {
		var nt *nodeTrace
		if t != nil {
			nt = &nodeTrace{}
		}
		ds := make([]*disk.Disk, local)
		for l := range ds {
			var st store.BlockStore = store.NewMem(blockSize, diskBlocks)
			if t != nil {
				st = t.wrapStore(st, nt)
			}
			ds[l] = disk.New(nil, fmt.Sprintf("n%d.d%d", n, l), st, disk.DefaultModel())
		}
		r.disks = append(r.disks, ds)
		var addr string
		if t == nil {
			node, err := cdd.ListenAndServe("127.0.0.1:0", ds)
			if err != nil {
				return nil, err
			}
			r.servers = append(r.servers, node)
			addr = node.Addr()
		} else {
			// ListenAndServe with the node decorator around Handle.
			m := cdd.NewManager(ds)
			srv, err := transport.ServeWith("127.0.0.1:0", t.handler(n, nt, m.Handle), transport.ServerOptions{
				Tracer:           m.Tracer(),
				RecycleResponses: true,
			})
			if err != nil {
				return nil, err
			}
			r.servers = append(r.servers, srv)
			addr = srv.Addr()
		}
		var c *cdd.NodeClient
		if t == nil {
			c, err = cdd.Connect(addr)
		} else {
			c, err = cdd.ConnectWith(ctx, addr, cdd.Options{Obs: t.reg})
		}
		if err != nil {
			return nil, err
		}
		r.clients = append(r.clients, c)
	}
	for l := 0; l < local; l++ {
		rs := make([]*cdd.RemoteDev, numNodes)
		ds := make([]raid.Dev, numNodes)
		for n, c := range r.clients {
			rs[n] = c.Dev(l)
			ds[n] = rs[n]
			if t != nil {
				ds[n] = t.wrapDev(rs[n], n, l)
			}
		}
		r.remote = append(r.remote, rs)
		r.devs = append(r.devs, ds)
	}
	return r, nil
}

func (r *rig) close() {
	for _, c := range r.clients {
		c.Close()
	}
	for _, s := range r.servers {
		s.Close()
	}
}

// settle forces a fresh health probe of d and waits until it reports
// want, so every run starts a phase with the engine seeing the same
// device state.
func settle(d *cdd.RemoteDev, want bool) error {
	deadline := time.Now().Add(settleTimeout)
	for {
		d.InvalidateHealth()
		if d.Healthy() == want {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("device health did not settle")
		}
		time.Sleep(time.Millisecond)
	}
}
