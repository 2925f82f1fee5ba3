package cluster

import (
	"math"
	"strings"
	"testing"
)

func TestDefaultMirrorsPaperTestbed(t *testing.T) {
	s := Default()
	if s.ClientNodes != 5 || s.ProcsPerNode != 10 || s.TotalRanks() != 50 {
		t.Fatalf("client topology = %d x %d", s.ClientNodes, s.ProcsPerNode)
	}
	if s.OSTCount != 5 || s.MDSCount != 1 {
		t.Fatalf("server topology = %d OST / %d MDS", s.OSTCount, s.MDSCount)
	}
	if s.NICBandwidth != 10e9/8 {
		t.Fatalf("nic = %g", s.NICBandwidth)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesNonsense(t *testing.T) {
	cases := []func(*Spec){
		func(s *Spec) { s.ClientNodes = 0 },
		func(s *Spec) { s.ProcsPerNode = 0 },
		func(s *Spec) { s.OSTCount = 0 },
		func(s *Spec) { s.NICBandwidth = 0 },
		func(s *Spec) { s.OSTServiceThreads = 0 },
		// NaN passes a `<= 0` check, so NaN bandwidths, and any negative
		// or non-finite time field, used to validate and then panic
		// inside the simulator.
		func(s *Spec) { s.NICBandwidth = math.NaN() },
		func(s *Spec) { s.NICBandwidth = math.Inf(1) },
		func(s *Spec) { s.DiskWriteBW = math.NaN() },
		func(s *Spec) { s.DiskReadBW = math.Inf(1) },
		func(s *Spec) { s.NetworkRTT = -1e-6 },
		func(s *Spec) { s.NetworkRTT = math.NaN() },
		func(s *Spec) { s.NetworkRTT = math.Inf(1) },
		func(s *Spec) { s.DiskSeekTime = -1e-3 },
		func(s *Spec) { s.RPCServiceFloor = math.NaN() },
		func(s *Spec) { s.MDSCreateTime = -1 },
		func(s *Spec) { s.MDSOpenTime = math.NaN() },
		func(s *Spec) { s.MDSStatTime = math.Inf(1) },
		func(s *Spec) { s.MDSCloseTime = -1 },
		func(s *Spec) { s.MDSUnlinkTime = math.NaN() },
		func(s *Spec) { s.MDSReaddirTime = -1 },
		func(s *Spec) { s.MDSPerStripeCost = math.NaN() },
		func(s *Spec) { s.DirLockSerial = -0.1 },
		func(s *Spec) { s.ChecksumPerByte = math.NaN() },
	}
	for i, mutate := range cases {
		s := Default()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
	// Zero is a legal time: a spec may model a free operation.
	s := Default()
	s.NetworkRTT, s.DiskSeekTime, s.ChecksumPerByte = 0, 0, 0
	if err := s.Validate(); err != nil {
		t.Errorf("zero times rejected: %v", err)
	}
}

func TestDescribeMentionsKeyFacts(t *testing.T) {
	d := Default().Describe()
	for _, want := range []string{"50 total", "5 OSTs", "10 Gbps"} {
		if !strings.Contains(d, want) {
			t.Errorf("describe missing %q: %s", want, d)
		}
	}
}
