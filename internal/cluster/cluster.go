// Package cluster describes the hardware platform the simulated Lustre
// deployment runs on. The default spec mirrors the paper's CloudLab testbed:
// ten machines (Intel Xeon Silver 4114, ~196 GB RAM, 10 Gbps network), five
// of them object storage servers, one combined MGS/MDS, and five client
// nodes running 50 MPI processes in total.
package cluster

import (
	"fmt"
	"math"
)

// Spec captures the cluster facts the tuner and the simulator need. Rates
// are bytes per second; times are seconds.
type Spec struct {
	ClientNodes  int // nodes running application processes
	ProcsPerNode int // MPI ranks per client node
	OSTCount     int // object storage targets (one per OSS)
	MDSCount     int // metadata servers (combined MGS/MDS in the paper)

	MemoryMBPerNode int // client node RAM in MiB

	NICBandwidth float64 // per-node link rate (10 Gbps)

	// OST storage behaviour.
	DiskWriteBW       float64 // sequential write bandwidth per OST
	DiskReadBW        float64 // sequential read bandwidth per OST
	DiskSeekTime      float64 // added service time for a non-contiguous access
	RPCServiceFloor   float64 // fixed per-RPC server-side overhead
	OSTServiceThreads int     // parallel service threads per OST

	// MDS behaviour.
	MDSServiceThreads int
	MDSCreateTime     float64 // base service time of a create+open
	MDSOpenTime       float64 // open of an existing file
	MDSStatTime       float64 // getattr
	MDSCloseTime      float64 // close (MDS_CLOSE)
	MDSUnlinkTime     float64 // unlink
	MDSReaddirTime    float64 // per-entry readdir cost
	MDSPerStripeCost  float64 // extra create cost per additional stripe object
	DirLockSerial     float64 // serialized fraction of same-directory mutations

	NetworkRTT      float64 // client<->server round-trip latency
	ChecksumPerByte float64 // CPU cost per byte when checksums are enabled
}

// Default returns the CloudLab-like testbed used throughout the paper's
// evaluation.
func Default() Spec {
	return Spec{
		ClientNodes:  5,
		ProcsPerNode: 10,
		OSTCount:     5,
		MDSCount:     1,

		MemoryMBPerNode: 196 * 1024,

		NICBandwidth: 10e9 / 8, // 10 Gbps -> 1.25 GB/s

		DiskWriteBW:       420e6,
		DiskReadBW:        480e6,
		DiskSeekTime:      3.2e-3,
		RPCServiceFloor:   180e-6,
		OSTServiceThreads: 8,

		MDSServiceThreads: 64,
		MDSCreateTime:     260e-6,
		MDSOpenTime:       120e-6,
		MDSStatTime:       85e-6,
		MDSCloseTime:      45e-6,
		MDSUnlinkTime:     210e-6,
		MDSReaddirTime:    6e-6,
		MDSPerStripeCost:  55e-6,
		DirLockSerial:     0.35,

		NetworkRTT:      120e-6,
		ChecksumPerByte: 0.35e-9, // ~15% tax at full NIC rate
	}
}

// TotalRanks returns the number of MPI processes across all client nodes.
func (s Spec) TotalRanks() int { return s.ClientNodes * s.ProcsPerNode }

// Validate reports an error for nonsensical specs: bandwidths must be
// positive and finite, and every time or cost field finite and
// non-negative. The comparisons are written so NaN fails them; a NaN or
// negative field would otherwise validate and then panic mid-simulation.
func (s Spec) Validate() error {
	switch {
	case s.ClientNodes < 1:
		return fmt.Errorf("cluster: need at least one client node, got %d", s.ClientNodes)
	case s.ProcsPerNode < 1:
		return fmt.Errorf("cluster: need at least one rank per node, got %d", s.ProcsPerNode)
	case s.OSTCount < 1:
		return fmt.Errorf("cluster: need at least one OST, got %d", s.OSTCount)
	case !(s.NICBandwidth > 0 && s.NICBandwidth <= math.MaxFloat64) ||
		!(s.DiskWriteBW > 0 && s.DiskWriteBW <= math.MaxFloat64) ||
		!(s.DiskReadBW > 0 && s.DiskReadBW <= math.MaxFloat64):
		return fmt.Errorf("cluster: bandwidths must be positive and finite")
	case s.OSTServiceThreads < 1 || s.MDSServiceThreads < 1:
		return fmt.Errorf("cluster: service thread counts must be >= 1")
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"DiskSeekTime", s.DiskSeekTime},
		{"RPCServiceFloor", s.RPCServiceFloor},
		{"MDSCreateTime", s.MDSCreateTime},
		{"MDSOpenTime", s.MDSOpenTime},
		{"MDSStatTime", s.MDSStatTime},
		{"MDSCloseTime", s.MDSCloseTime},
		{"MDSUnlinkTime", s.MDSUnlinkTime},
		{"MDSReaddirTime", s.MDSReaddirTime},
		{"MDSPerStripeCost", s.MDSPerStripeCost},
		{"DirLockSerial", s.DirLockSerial},
		{"NetworkRTT", s.NetworkRTT},
		{"ChecksumPerByte", s.ChecksumPerByte},
	} {
		if !(f.v >= 0 && f.v <= math.MaxFloat64) {
			return fmt.Errorf("cluster: %s must be finite and non-negative, got %g", f.name, f.v)
		}
	}
	return nil
}

// Describe renders the hardware summary given to the Tuning Agent as
// cluster-specific context (the paper: "details about the hardware and
// storage system setup").
func (s Spec) Describe() string {
	return fmt.Sprintf(
		"Cluster: %d client nodes x %d MPI ranks (%d total), %d OSTs, %d MDS. "+
			"Per-node RAM %d MiB. Network %0.0f Gbps per node. "+
			"OST disk ~%0.0f MB/s write / ~%0.0f MB/s read, seek penalty %0.1f ms.",
		s.ClientNodes, s.ProcsPerNode, s.TotalRanks(), s.OSTCount, s.MDSCount,
		s.MemoryMBPerNode, s.NICBandwidth*8/1e9,
		s.DiskWriteBW/1e6, s.DiskReadBW/1e6, s.DiskSeekTime*1e3)
}
