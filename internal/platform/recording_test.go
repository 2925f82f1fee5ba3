package platform

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"stellar/internal/lustre"
	"stellar/internal/params"
	"stellar/internal/workload"
)

// recordingSeeds returns canonical recordings covering every shape the
// reader decodes: a real run of every catalog family, a traced run with
// events, clamped parameters, non-zero fault stalls, and null versus []
// slices.
func recordingSeeds(tb testing.TB) []*Recording {
	tb.Helper()
	spec := testSpec()
	var families []string
	for _, l := range [][]string{workload.Benchmarks(), workload.RealApps(), workload.Extras(), workload.Adversarial()} {
		families = append(families, l...)
	}
	run := func(s RunSpec) *Recording {
		res, err := Simulator{}.Run(context.Background(), s)
		if err != nil {
			tb.Fatal(err)
		}
		return &Recording{Key: s.Key(), Workload: s.Workload.Name, Seed: s.Seed, Result: *res}
	}
	var recs []*Recording
	for _, name := range families {
		w, err := workload.Catalog(name, spec.TotalRanks(), 0.01)
		if err != nil {
			tb.Fatal(err)
		}
		recs = append(recs, run(RunSpec{Spec: spec, Workload: w, Config: params.DefaultConfig(params.Lustre()), Seed: 3}))
	}
	w, err := workload.Catalog("IOR_16M", spec.TotalRanks(), 0.01)
	if err != nil {
		tb.Fatal(err)
	}
	base := RunSpec{Spec: spec, Workload: w, Config: params.DefaultConfig(params.Lustre()), Seed: 5}

	traced := base
	sink := &captureSink{}
	traced.Trace = sink
	rec := run(traced)
	if len(sink.events) == 0 {
		tb.Fatal("traced run recorded no events")
	}
	rec.Events = sink.events[:min(len(sink.events), 64)]
	recs = append(recs, rec)

	clamped := base
	clamped.Config = base.Config.Clone()
	clamped.Config["osc.max_rpcs_in_flight"] = 100000
	if rec = run(clamped); len(rec.Result.Clamped) == 0 {
		tb.Fatal("out-of-range config was not clamped")
	}
	recs = append(recs, rec)

	faulted := base
	faulted.Faults = lustre.FaultPlan{Seed: 42, Severity: 1}
	if rec = run(faulted); rec.Result.Result.FaultStalls == 0 || rec.Result.Result.FaultStallSec == 0 {
		tb.Fatal("fault plan stalled no RPC")
	}
	recs = append(recs, rec)

	empty := *recs[0]
	res := *empty.Result.Result
	res.BarrierTimes, res.Clamped = []float64{}, []string{}
	empty.Result.Result = &res
	nulls := *recs[0]
	nulls.Result.Result = nil
	return append(recs, &empty, &nulls)
}

// FuzzReadRecording checks the reader against encoding/json: whatever it
// accepts, json.Unmarshal must accept too and decode to an equal Recording.
func FuzzReadRecording(f *testing.F) {
	for _, rec := range recordingSeeds(f) {
		data, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(append(data, '\n'))
		var indented bytes.Buffer
		if err := json.Indent(&indented, data, "", " "); err != nil {
			f.Fatal(err)
		}
		f.Add(indented.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want Recording
		werr := json.Unmarshal(data, &want)
		got, err := decodeRecording(data, want.Key)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "platform: corrupt recording") && !strings.HasPrefix(err.Error(), "platform: mislabelled recording") {
				t.Fatalf("error outside the reader's contract: %v", err)
			}
			return
		}
		if werr != nil {
			t.Fatalf("reader accepted what encoding/json rejects (%v):\n%q", werr, data)
		}
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("reader and encoding/json disagree on %q:\n%+v\nvs\n%+v", data, got, want)
		}
	})
}

// TestReadRecordingOfEveryShape: every seed shape, written by
// WriteRecording, reads back equal. Its non-canonical variants — a trailing
// newline, indentation, a reordered or unknown field — are corrupt though
// they hold the same value, and so are values encoding/json rejects.
func TestReadRecordingOfEveryShape(t *testing.T) {
	dir := t.TempDir()
	var traced *Recording // it holds every field
	for i, rec := range recordingSeeds(t) {
		rec.Key = fmt.Sprintf("%064x", i)
		if err := WriteRecording(dir, rec); err != nil {
			t.Fatal(err)
		}
		got, err := ReadRecording(dir, rec.Key)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("seed %d read back\n%+v\nwant\n%+v", i, got, rec)
		}
		if traced == nil && len(rec.Events) > 0 {
			traced = rec
		}
	}
	data, err := json.Marshal(traced)
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, data, "", "  "); err != nil {
		t.Fatal(err)
	}
	edit := func(pattern, repl string) []byte {
		return regexp.MustCompile(pattern).ReplaceAll(data, []byte(repl))
	}
	workloadField := fmt.Sprintf(`,"workload":%q`, traced.Workload)
	for _, tc := range []struct {
		name  string
		bad   []byte
		valid bool // encoding/json accepts it, with the same value
	}{
		{"trailing newline", append(bytes.Clone(data), '\n'), true},
		{"indented", indented.Bytes(), true},
		{"reordered", bytes.Replace(edit(workloadField, ""), []byte(`}}`), []byte(`}}`+workloadField), 1), true},
		{"unknown field", edit(`,"seed":`, `,"epoch":1,"seed":`), true},
		{"torn", data[:len(data)/2], false},
		{"int32 overflow", edit(`"File":\d+`, `"File":2147483648`), false},
		{"negative uint", edit(`"DataRPCs":\d+`, `"DataRPCs":-1`), false},
		{"fraction in an int", edit(`"seed":(\d+)`, `"seed":${1}.0`), false},
		{"float overflow", edit(`"WallTime":[^,]+`, `"WallTime":1e400`), false},
		{"plus sign", edit(`"seed":(\d+)`, `"seed":+${1}`), false},
		{"leading zero", edit(`"seed":(\d+)`, `"seed":0${1}`), false},
		{"hex float", edit(`"End":[^,]+`, `"End":0x1p-2`), false},
	} {
		if bytes.Equal(tc.bad, data) {
			t.Fatalf("%s: the edit changed nothing", tc.name)
		}
		if err := json.Unmarshal(tc.bad, new(Recording)); (err == nil) != tc.valid {
			t.Fatalf("%s: encoding/json error %v, want valid=%v", tc.name, err, tc.valid)
		}
		if _, err := decodeRecording(tc.bad, traced.Key); err == nil || !strings.Contains(err.Error(), "corrupt recording") {
			t.Errorf("%s: got %v, want a corrupt-recording error", tc.name, err)
		}
	}
	if _, err := decodeRecording(data, strings.Repeat("f", 64)); err == nil || !strings.Contains(err.Error(), "mislabelled") {
		t.Errorf("wrong key: got %v, want a mislabelled-recording error", err)
	}
}

// TestRecordingRoundTripGenerated: ReadRecording of WriteRecording's output
// equals the input for generated recordings, whose floats span every
// exponent and whose strings need escapes. Empty omitempty lists are nil,
// as json.Marshal drops them either way.
func TestRecordingRoundTripGenerated(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	float := func() float64 {
		for {
			f := math.Float64frombits(rng.Uint64())
			if !math.IsNaN(f) && !math.IsInf(f, 0) {
				if rng.Intn(4) == 0 {
					return float64(rng.Intn(1000))
				}
				return f
			}
		}
	}
	runes := []rune("aZ09_.-<>&\"\\\n\t\x00\x1fé€\u2028😀")
	str := func() string {
		r := make([]rune, rng.Intn(12))
		for i := range r {
			r[i] = runes[rng.Intn(len(runes))]
		}
		return string(r)
	}
	strs := func() []string {
		n := rng.Intn(4)
		if n == 0 && rng.Intn(2) == 0 {
			return nil
		}
		out := make([]string, n)
		for i := range out {
			out[i] = str()
		}
		return out
	}
	for i := range 200 {
		var key [32]byte
		rng.Read(key[:])
		rec := &Recording{Key: hex.EncodeToString(key[:]), Workload: str(), Seed: int64(rng.Uint64())}
		rec.Result.WallTime = float()
		if c := strs(); len(c) > 0 {
			rec.Result.Clamped = c
		}
		if rng.Intn(8) != 0 {
			res := &lustre.Result{
				WallTime: float(), BytesRead: int64(rng.Uint64()), BytesWritten: -int64(rng.Uint32()),
				DataRPCs: rng.Uint64(), MetaRPCs: rng.Uint64(), CacheHits: uint64(rng.Intn(9)), RAHits: rng.Uint64(),
				RAWasted: int64(rng.Uint64()), StatHits: rng.Uint64(), LastDataRPC: float(), LastMetaRPC: float(),
				FaultStalls: rng.Uint64(), FaultStallSec: float(), Clamped: strs(),
			}
			if n := rng.Intn(4); n > 0 || rng.Intn(2) == 0 {
				res.BarrierTimes = make([]float64, n)
				for j := range res.BarrierTimes {
					res.BarrierTimes[j] = float()
				}
			}
			rec.Result.Result = res
		}
		for range rng.Intn(3) * rng.Intn(3) {
			rec.Events = append(rec.Events, lustre.Event{
				Rank: int(rng.Int63()) - math.MaxInt32, Op: workload.OpType(rng.Intn(9)), File: int32(rng.Uint32()),
				Offset: int64(rng.Uint64()), Size: rng.Int63(), Start: float(), End: float(),
				CacheHit: rng.Intn(2) == 0, Sequential: rng.Intn(2) == 0,
			})
		}
		if err := WriteRecording(dir, rec); err != nil {
			t.Fatal(err)
		}
		got, err := ReadRecording(dir, rec.Key)
		if err != nil {
			t.Fatalf("recording %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("recording %d read back\n%+v\nwant\n%+v", i, got, rec)
		}
	}
}

// TestRecordingLayout pins the fields the reader decodes, in order. A field
// added to, removed from or reordered in one of these types changes what
// json.Marshal writes; decodeRecording must then change with it, and this
// list after it.
func TestRecordingLayout(t *testing.T) {
	want := []string{
		"platform.Recording: Key string key | Workload string workload | Seed int64 seed | Result platform.RunResult result | Events []lustre.Event events,omitempty",
		"platform.RunResult: WallTime float64 wall_time_s | Clamped []string clamped,omitempty | Result *lustre.Result result",
		"lustre.Result: WallTime float64 | BytesRead int64 | BytesWritten int64 | DataRPCs uint64 | MetaRPCs uint64 | CacheHits uint64 | RAHits uint64 | RAWasted int64 | StatHits uint64 | LastDataRPC float64 | LastMetaRPC float64 | FaultStalls uint64 | FaultStallSec float64 | BarrierTimes []float64 | Clamped []string",
		"lustre.Event: Rank int | Op workload.OpType | File int32 | Offset int64 | Size int64 | Start float64 | End float64 | CacheHit bool | Sequential bool",
	}
	for i, v := range []any{Recording{}, RunResult{}, lustre.Result{}, lustre.Event{}} {
		typ := reflect.TypeOf(v)
		var fields []string
		for j := range typ.NumField() {
			f := typ.Field(j)
			fields = append(fields, strings.TrimSpace(f.Name+" "+f.Type.String()+" "+f.Tag.Get("json")))
		}
		if got := typ.String() + ": " + strings.Join(fields, " | "); got != want[i] {
			t.Errorf("the recording layout changed; decodeRecording (decode.go) must read the new layout, then update this list:\n got %s\nwant %s", got, want[i])
		}
	}
	if reflect.TypeOf(workload.OpType(0)).Kind() != reflect.Int {
		t.Error("workload.OpType is no longer an int; decodeRecording reads event ops as int")
	}
}

func BenchmarkReadRecording(b *testing.B) {
	dir := b.TempDir()
	spec := testRunSpec(b, 11)
	res, err := Simulator{}.Run(context.Background(), spec)
	if err != nil {
		b.Fatal(err)
	}
	rec := Recording{Key: spec.Key(), Workload: spec.Workload.Name, Seed: spec.Seed, Result: *res}
	if err := WriteRecording(dir, &rec); err != nil {
		b.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, rec.Key+".json")); err == nil {
		b.SetBytes(fi.Size())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := ReadRecording(dir, rec.Key); err != nil {
			b.Fatal(err)
		}
	}
}
