package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"sync"
)

// Catalog workloads are shared. Every Evaluate, Tune, and serving request
// asks for its workload by (name, ranks, scale), and the op streams of the
// larger families run to hundreds of thousands of ops, so Catalog builds
// each one once, seals it with its content digest, and hands the same
// immutable *Workload to every later caller. Retention is bounded by both
// entry count and total op count; the oldest entry is evicted first, so
// what stays resident depends only on the order of Catalog calls.

const (
	// maxSharedEntries caps how many distinct workloads stay resident.
	maxSharedEntries = 128
	// maxSharedOps caps the op streams held across all resident workloads
	// at about 80 MiB (an Op is 40 bytes): three times the whole catalog at
	// the default scale. A workload larger than this on its own (an
	// MDWorkbench at full scale) is still sealed, but rebuilt on every call.
	maxSharedOps = 1 << 21
)

type sharedKey struct {
	name  string
	ranks int
	scale uint64 // math.Float64bits, so every scale (NaN too) is one key
}

// memo is a bounded, FIFO-evicted table of sealed workloads.
type memo struct {
	maxEntries, maxOps int

	mu   sync.Mutex
	m    map[sharedKey]*Workload
	fifo []sharedKey // insertion order, oldest first
	ops  int         // total ops across m
}

var shared = &memo{maxEntries: maxSharedEntries, maxOps: maxSharedOps}

// get returns the resident workload for k, or builds, seals, and retains
// one. Concurrent first callers may each build, but the first to finish is
// retained and every caller gets that one pointer.
func (c *memo) get(k sharedKey, build func() *Workload) *Workload {
	c.mu.Lock()
	w, ok := c.m[k]
	c.mu.Unlock()
	if ok {
		return w
	}

	w = build()
	w.digest = w.hash()
	w.sealed = w
	n := w.TotalOps()

	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.m[k]; ok {
		return prev
	}
	if n > c.maxOps {
		return w
	}
	if c.m == nil {
		c.m = map[sharedKey]*Workload{}
	}
	c.m[k] = w
	c.fifo = append(c.fifo, k)
	c.ops += n
	for len(c.fifo) > c.maxEntries || c.ops > c.maxOps {
		old := c.fifo[0]
		c.ops -= c.m[old].TotalOps()
		delete(c.m, old)
		c.fifo = append(c.fifo[:0], c.fifo[1:]...)
	}
	return w
}

// Digest returns the SHA-256 content digest of the workload: name,
// interface, scale, think time, directory count, file table, phases, and
// every op of every rank. It is the workload's part of a platform.RunSpec
// key, so equal digests mean byte-identical trials.
//
// A workload from Catalog carries the digest computed when it was sealed,
// so this is free. Any other workload — built by a generator directly, or
// a struct copy of a Catalog workload — is hashed in full on every call:
// a copy's sealed pointer names the original, never the copy, so editing a
// copy can never reuse the original's digest.
func (w *Workload) Digest() [sha256.Size]byte {
	if w.sealed == w {
		return w.digest
	}
	return w.hash()
}

// hash computes the content digest. The byte encoding is part of every
// stored run key and must not change: a text header, 5 bytes per file, a
// text line per phase, then each rank's ops at 29 bytes apiece followed by
// a rank boundary marker, so (rank0: a,b)(rank1: c) stays distinct from
// (rank0: a)(rank1: b,c).
func (w *Workload) hash() [sha256.Size]byte {
	h := sha256.New()
	fmt.Fprintf(h, "workload %q iface %q scale %g compute %g dirs %d\n",
		w.Name, w.Interface, w.Scale, w.ComputePerOp, w.DirCount)
	var buf [29]byte
	for _, fm := range w.Files {
		binary.LittleEndian.PutUint32(buf[0:4], uint32(fm.Dir))
		buf[4] = 0
		if fm.Shared {
			buf[4] = 1
		}
		h.Write(buf[:5])
	}
	for _, ph := range w.Phases {
		fmt.Fprintf(h, "phase %q %d\n", ph.Name, ph.Start)
	}
	for _, ops := range w.Ranks {
		hashOps(h, ops, buf[:])
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// hashOps writes one rank's op stream into h using a fixed 29-byte binary
// encoding per op, then the rank boundary marker.
func hashOps(h hash.Hash, ops []Op, buf []byte) {
	for _, op := range ops {
		buf[0] = byte(op.Type)
		binary.LittleEndian.PutUint32(buf[1:5], uint32(op.File))
		binary.LittleEndian.PutUint32(buf[5:9], uint32(op.Dir))
		binary.LittleEndian.PutUint64(buf[9:17], uint64(op.Offset))
		binary.LittleEndian.PutUint64(buf[17:25], uint64(op.Size))
		binary.LittleEndian.PutUint32(buf[25:29], uint32(op.Index))
		h.Write(buf[:29])
	}
	h.Write([]byte{0xff, 'r', 'a', 'n', 'k'})
}
