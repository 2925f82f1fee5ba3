package darshan

import (
	"fmt"
	"strings"
)

// Dump renders the log in darshan-parser's textual format: the commented
// header followed by one "<module> <rank> <record> <counter> <value>" line
// per counter, which lets existing Darshan tooling habits (grep/awk
// pipelines) work against simulated logs.
func (l *Log) Dump() string {
	var b strings.Builder
	b.WriteString(l.HeaderText())
	b.WriteString("#<module>\t<rank>\t<record>\t<counter>\t<value>\n")
	for _, r := range l.Records {
		mod := r.Module
		if mod == "MPI-IO" {
			mod = "MPIIO"
		}
		rank := -1 // shared records use rank -1, as real Darshan does
		if r.Ranks() == 1 {
			//stellar:order-independent the Ranks()==1 guard means rankSet holds exactly one entry
			for only := range r.rankSet {
				rank = only
			}
		}
		rec := fmt.Sprintf("file_%d", r.FileID)
		emit := func(counter string, value any) {
			fmt.Fprintf(&b, "%s\t%d\t%s\t%s_%s\t%v\n", mod, rank, rec, mod, counter, value)
		}
		emit("OPENS", r.Opens)
		emit("READS", r.Reads)
		emit("WRITES", r.Writes)
		emit("STATS", r.Stats)
		emit("FSYNCS", r.Fsyncs)
		emit("UNLINKS", r.Unlinks)
		emit("BYTES_READ", r.BytesRead)
		emit("BYTES_WRITTEN", r.BytesWritten)
		emit("SEQ_READS", r.SeqReads)
		emit("SEQ_WRITES", r.SeqWrites)
		emit("MAX_BYTE_READ", r.MaxByteRead)
		emit("MAX_BYTE_WRITTEN", r.MaxByteWritten)
		for i, name := range sizeBucketNames {
			emit(name+"_READ", r.ReadSizeBuckets[i])
			emit(name+"_WRITE", r.WriteSizeBuckets[i])
		}
		emit("F_READ_TIME", fmt.Sprintf("%.6f", r.ReadTime))
		emit("F_WRITE_TIME", fmt.Sprintf("%.6f", r.WriteTime))
		emit("F_META_TIME", fmt.Sprintf("%.6f", r.MetaTime))
		emit("F_VARIANCE_RANK_TIME", fmt.Sprintf("%.6f", r.VarianceRankTime()))
	}
	return b.String()
}
