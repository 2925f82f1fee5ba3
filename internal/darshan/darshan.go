// Package darshan models the Darshan I/O characterisation tool: it collects
// per-(module, file) statistical counters from the simulated file system
// and renders them in Darshan's record format. The preprocessing step
// (§4.1) converts a log into dataframes plus column-description strings for
// the Analysis Agent.
package darshan

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"stellar/internal/lustre"
	"stellar/internal/workload"
)

// sizeBucketNames follow Darshan's access-size histogram boundaries.
var sizeBucketNames = []string{
	"SIZE_0_100", "SIZE_100_1K", "SIZE_1K_10K", "SIZE_10K_100K",
	"SIZE_100K_1M", "SIZE_1M_4M", "SIZE_4M_10M", "SIZE_10M_100M", "SIZE_100M_PLUS",
}

func sizeBucket(n int64) int {
	switch {
	case n < 100:
		return 0
	case n < 1<<10:
		return 1
	case n < 10<<10:
		return 2
	case n < 100<<10:
		return 3
	case n < 1<<20:
		return 4
	case n < 4<<20:
		return 5
	case n < 10<<20:
		return 6
	case n < 100<<20:
		return 7
	}
	return 8
}

// Record is the per-module, per-file counter set.
type Record struct {
	Module string // "POSIX" or "MPI-IO"
	FileID int32

	Opens, Reads, Writes, Stats, Fsyncs, Unlinks int64
	BytesRead, BytesWritten                      int64
	SeqReads, SeqWrites                          int64
	CacheHitReads                                int64
	ReadSizeBuckets, WriteSizeBuckets            [9]int64
	MaxByteRead, MaxByteWritten                  int64

	ReadTime, WriteTime, MetaTime float64

	rankTime map[int]float64
	rankSet  map[int]bool
}

// Ranks returns the number of distinct ranks that touched the file.
func (r *Record) Ranks() int { return len(r.rankSet) }

// SlowestRankTime returns the largest per-rank accumulated I/O time.
func (r *Record) SlowestRankTime() float64 {
	m := 0.0
	for _, t := range r.rankTime {
		m = math.Max(m, t)
	}
	return m
}

// FastestRankTime returns the smallest per-rank accumulated I/O time.
func (r *Record) FastestRankTime() float64 {
	m := math.Inf(1)
	for _, t := range r.rankTime {
		m = math.Min(m, t)
	}
	if math.IsInf(m, 1) {
		return 0
	}
	return m
}

// VarianceRankTime returns the variance of per-rank I/O time. The sums run
// over ranks in sorted order: float accumulation rounds differently per
// order, and this value feeds rendered logs that golden replays compare.
func (r *Record) VarianceRankTime() float64 {
	n := len(r.rankTime)
	if n == 0 {
		return 0
	}
	ranks := make([]int, 0, n)
	for rank := range r.rankTime {
		ranks = append(ranks, rank)
	}
	sort.Ints(ranks)
	mean := 0.0
	for _, rank := range ranks {
		mean += r.rankTime[rank]
	}
	mean /= float64(n)
	v := 0.0
	for _, rank := range ranks {
		t := r.rankTime[rank]
		v += (t - mean) * (t - mean)
	}
	return v / float64(n)
}

// Header carries the Darshan log header fields the paper's preprocessing
// loads as a string variable.
type Header struct {
	JobID     string
	Exe       string
	NProcs    int
	RunTime   float64
	Interface string
}

// Log is a completed Darshan log: header plus records.
type Log struct {
	Header  Header
	Records []*Record
}

// Collector implements lustre.TraceSink, aggregating events into records.
type Collector struct {
	iface   string
	records map[recordKey]*Record
	maxEnd  float64
}

// recordKey identifies one record. Log orders records by the text
// "module|file", so the key stays structured and is rendered only there.
type recordKey struct {
	module string
	file   int32
}

// NewCollector creates a collector for a workload using the given I/O
// interface ("POSIX" or "MPI-IO"). MPI-IO applications produce both MPI-IO
// and POSIX records, as the real library layers do.
func NewCollector(iface string) *Collector {
	return &Collector{iface: iface, records: make(map[recordKey]*Record)}
}

func (c *Collector) rec(module string, file int32) *Record {
	k := recordKey{module: module, file: file}
	r, ok := c.records[k]
	if !ok {
		r = &Record{
			Module: module, FileID: file,
			rankTime: make(map[int]float64),
			rankSet:  make(map[int]bool),
		}
		c.records[k] = r
	}
	return r
}

// Record implements lustre.TraceSink.
func (c *Collector) Record(ev lustre.Event) {
	if ev.End > c.maxEnd {
		c.maxEnd = ev.End
	}
	if ev.Op == workload.OpBarrier {
		return
	}
	mods := []string{"POSIX"}
	if c.iface == "MPI-IO" {
		mods = []string{"MPI-IO", "POSIX"}
	}
	dur := ev.End - ev.Start
	for _, m := range mods {
		r := c.rec(m, ev.File)
		r.rankSet[ev.Rank] = true
		r.rankTime[ev.Rank] += dur
		switch ev.Op {
		case workload.OpRead:
			r.Reads++
			r.BytesRead += ev.Size
			r.ReadTime += dur
			r.ReadSizeBuckets[sizeBucket(ev.Size)]++
			if ev.Sequential {
				r.SeqReads++
			}
			if ev.CacheHit {
				r.CacheHitReads++
			}
			if end := ev.Offset + ev.Size; end > r.MaxByteRead {
				r.MaxByteRead = end
			}
		case workload.OpWrite:
			r.Writes++
			r.BytesWritten += ev.Size
			r.WriteTime += dur
			r.WriteSizeBuckets[sizeBucket(ev.Size)]++
			if ev.Sequential {
				r.SeqWrites++
			}
			if end := ev.Offset + ev.Size; end > r.MaxByteWritten {
				r.MaxByteWritten = end
			}
		case workload.OpOpen, workload.OpCreate:
			r.Opens++
			r.MetaTime += dur
		case workload.OpStat:
			r.Stats++
			r.MetaTime += dur
		case workload.OpFsync:
			r.Fsyncs++
			r.MetaTime += dur
		case workload.OpUnlink:
			r.Unlinks++
			r.MetaTime += dur
		default:
			r.MetaTime += dur
		}
	}
}

// Log finalises the collection into a Darshan log.
func (c *Collector) Log(jobID, exe string, nprocs int) *Log {
	l := &Log{Header: Header{
		JobID: jobID, Exe: exe, NProcs: nprocs,
		RunTime: c.maxEnd, Interface: c.iface,
	}}
	// Records sort by their "module|file" text, the order the Analysis
	// Agent's frames have always had (so file 10 precedes file 9).
	type sortable struct {
		text string
		rec  *Record
	}
	recs := make([]sortable, 0, len(c.records))
	for k, r := range c.records {
		recs = append(recs, sortable{text: k.module + "|" + strconv.Itoa(int(k.file)), rec: r})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].text < recs[j].text })
	for _, sr := range recs {
		l.Records = append(l.Records, sr.rec)
	}
	return l
}

// HeaderText renders the header as the string variable the preprocessing
// script exposes to the Analysis Agent.
func (l *Log) HeaderText() string {
	return fmt.Sprintf(
		"# darshan log version: 3.4 (simulated)\n"+
			"# exe: %s\n# jobid: %s\n# nprocs: %d\n# run time: %.3f s\n# interfaces: %s, POSIX\n",
		l.Header.Exe, l.Header.JobID, l.Header.NProcs, l.Header.RunTime, l.Header.Interface)
}
