package main

import (
	"testing"
	"time"

	"repro/internal/parity"
)

// calibrateParity measures the parity kernels by direct calls at the
// rs(4,2) 4 KiB shape the repair workload's rs array uses: encode
// throughput, reconstruct throughput with two data shards lost, and the
// allocations of one reconstruct.
func calibrateParity(m map[string]float64) {
	const k, p = 4, 2
	code, err := parity.NewRS(k, p)
	if err != nil {
		return
	}
	shards := make([][]byte, k+p)
	for i := range shards {
		shards[i] = make([]byte, blockSize)
	}
	bs := newBodies(blockSize)
	for i := 0; i < k; i++ {
		copy(shards[i], bs[i])
	}
	present := make([]bool, k+p)
	encode := func() { _ = code.Encode(shards[:k], shards[k:]) }
	reconstruct := func() {
		for i := range present {
			present[i] = i >= 2
		}
		_ = code.Reconstruct(shards, present)
	}
	rate := func(f func()) float64 {
		const n = 2000
		var best time.Duration
		for r := 0; r < 5; r++ {
			start := time.Now()
			for i := 0; i < n; i++ {
				f()
			}
			if d := time.Since(start); r == 0 || d < best {
				best = d
			}
		}
		return mbps(n*k*blockSize, best)
	}
	m["parity.encode_mb_s"] = rate(encode)
	m["parity.reconstruct_mb_s"] = rate(reconstruct)
	m["parity.reconstruct_allocs"] = testing.AllocsPerRun(200, reconstruct)
}
