package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
)

// Block contents are self-describing so every read can be checked: the
// first word is the logical block number, the second the version the
// writer stamped, and the rest is a body chosen by the version. Versions
// are unique per write (oltp, maintenance) or per pass (stream), so a
// stale block, a block from the wrong address and a corrupted byte all
// fail the check.

const (
	hdrLen  = 16
	nBodies = 64
	// unknownVer marks a block whose last write failed: either version
	// may be on disk, so reads of it are not checked until it is
	// rewritten.
	unknownVer = ^uint64(0)
)

// bodies holds the precomputed block bodies; version v uses body v%64,
// so consecutive versions of a block never share a body.
type bodies [][]byte

func newBodies(bs int) bodies {
	b := make(bodies, nBodies)
	for i := range b {
		b[i] = make([]byte, bs)
		x := uint64(i)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
		for j := 0; j+8 <= bs; j += 8 {
			// splitmix64
			x += 0x9E3779B97F4A7C15
			z := x
			z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
			z = (z ^ (z >> 27)) * 0x94D049BB133111EB
			binary.LittleEndian.PutUint64(b[i][j:], z^(z>>31))
		}
	}
	return b
}

func (b bodies) of(ver uint64) []byte { return b[ver%nBodies] }

// stamp writes block blk at version ver into p (one block).
func (b bodies) stamp(p []byte, blk int64, ver uint64) {
	copy(p[hdrLen:], b.of(ver)[hdrLen:])
	stampHdr(p, blk, ver)
}

func stampHdr(p []byte, blk int64, ver uint64) {
	binary.LittleEndian.PutUint64(p[0:], uint64(blk))
	binary.LittleEndian.PutUint64(p[8:], ver)
}

// check reports whether p (one block) holds block blk at version ver.
func (b bodies) check(p []byte, blk int64, ver uint64) bool {
	if ver == unknownVer {
		return true
	}
	return binary.LittleEndian.Uint64(p[0:]) == uint64(blk) &&
		binary.LittleEndian.Uint64(p[8:]) == ver &&
		bytes.Equal(p[hdrLen:], b.of(ver)[hdrLen:])
}

// blockIO is the slice of an array the load generators use.
type blockIO interface {
	ReadBlocks(ctx context.Context, b int64, p []byte) error
	WriteBlocks(ctx context.Context, b int64, p []byte) error
	Flush(ctx context.Context) error
}

const chunkBlocks = 64

// fill writes blocks [lo, hi) of a in 64-block chunks, each block at
// version ver(blk), then flushes.
func fill(ctx context.Context, a blockIO, bs bodies, lo, hi int64, ver func(int64) uint64) error {
	bsz := len(bs[0])
	buf := make([]byte, chunkBlocks*bsz)
	for b := lo; b < hi; b += chunkBlocks {
		n := min(int64(chunkBlocks), hi-b)
		for i := int64(0); i < n; i++ {
			bs.stamp(buf[i*int64(bsz):(i+1)*int64(bsz)], b+i, ver(b+i))
		}
		if err := a.WriteBlocks(ctx, b, buf[:n*int64(bsz)]); err != nil {
			return fmt.Errorf("fill block %d: %w", b, err)
		}
	}
	return a.Flush(ctx)
}

// readBack reads blocks [lo, hi) of a and counts the blocks that do not
// hold version ver(blk).
func readBack(ctx context.Context, a blockIO, bs bodies, lo, hi int64, ver func(int64) uint64) (wrong int64, err error) {
	bsz := len(bs[0])
	buf := make([]byte, chunkBlocks*bsz)
	for b := lo; b < hi; b += chunkBlocks {
		n := min(int64(chunkBlocks), hi-b)
		if err := a.ReadBlocks(ctx, b, buf[:n*int64(bsz)]); err != nil {
			return wrong, fmt.Errorf("read back block %d: %w", b, err)
		}
		for i := int64(0); i < n; i++ {
			if !bs.check(buf[i*int64(bsz):(i+1)*int64(bsz)], b+i, ver(b+i)) {
				wrong++
			}
		}
	}
	return wrong, nil
}
