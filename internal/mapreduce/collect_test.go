package mapreduce

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/mrpc"
	"repro/internal/units"
)

// TestEmitBytesCopiesKeyAndValue runs a mapper that builds every key in
// one buffer and every value in another, emits them through Emit.Bytes
// and overwrites both at once — through map, combine, spill and reduce
// its part files are the ones a mapper emitting fresh strings produces.
func TestEmitBytesCopiesKeyAndValue(t *testing.T) {
	lines := wcCorpus(400)
	job := func(m Mapper) map[string][]byte {
		c := testCluster(3, 512)
		if err := writeCorpus(c, "/in/alias", lines); err != nil {
			t.Fatal(err)
		}
		res, err := Run(c, Config{
			Inputs: []string{"/in/alias"}, OutputDir: "/out/alias",
			Mapper: m, Combiner: SumReducer(), Reducer: SumReducer(),
			NumReducers: 3, ShuffleMemory: 1024,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters.SpillRuns == 0 || res.Counters.CombineInput == 0 {
			t.Fatalf("job neither spilled nor combined: %+v", res.Counters)
		}
		return readParts(t, c, res.OutputFiles)
	}
	fresh := job(MapperFunc(func(_ string, v []byte, emit Emit) error {
		for i, w := range strings.Fields(string(v)) {
			emit(w, []byte(fmt.Sprint(i+1)))
		}
		return nil
	}))
	reused := job(MapperFunc(func(_ string, v []byte, emit Emit) error {
		var key, val []byte // one buffer each for the whole record
		for i, w := range strings.Fields(string(v)) {
			key, val = append(key[:0], w...), fmt.Append(val[:0], i+1)
			emit.Bytes(key, val)
			for j := range key {
				key[j] = 'X'
			}
			for j := range val {
				val[j] = '9'
			}
		}
		return nil
	}))
	if len(fresh) != 3 || len(reused) != len(fresh) {
		t.Fatalf("part files: %d fresh, %d reused", len(fresh), len(reused))
	}
	for name, want := range fresh {
		if !bytes.Equal(reused[name], want) {
			t.Errorf("%s differs when the mapper reuses its buffers:\n got %q\nwant %q", name, reused[name], want)
		}
	}
}

// TestMapAttemptAllocatesPerKeyNotPerRecord pins a whole map attempt of
// the built-in wordcount — 100k records under 1k keys, combiner on,
// final run written to the store — at a number of allocations in the
// distinct keys. One string per emitted key and one per input line put
// it two orders of magnitude higher.
func TestMapAttemptAllocatesPerKeyNotPerRecord(t *testing.T) {
	const records, keys = 100_000, 1_000
	var corpus bytes.Buffer
	for i := 0; i < records; i++ {
		sep := byte(' ')
		if i%10 == 9 {
			sep = '\n'
		}
		fmt.Fprintf(&corpus, "word%04d%c", i*7%keys, sep)
	}
	cfg, err := Builtin().Resolve(mrpc.JobSpec{Name: "wordcount", NumReducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rt := testRuntime(cfg)
	rt.spillAll, rt.progress, rt.cancelled = true, func(float64) {}, func() bool { return false }
	w, err := rt.store.Create("/in/allocs", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(corpus.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s := split{file: "/in/allocs", length: int64(corpus.Len())}
	allocs := testing.AllocsPerRun(3, func() {
		*rt.ctr = mrpc.TaskCounters{}
		out, err := rt.executeMap("", 0, s)
		if err != nil {
			t.Fatal(err)
		}
		rt.discardOutput(out)
	})
	if c := rt.ctr; c.MapOutputRecords != records || c.CombineOutput != keys {
		t.Fatalf("attempt emitted %d records and combined them to %d, want %d and %d", c.MapOutputRecords, c.CombineOutput, records, keys)
	}
	if allocs > 4*keys {
		t.Errorf("a map attempt of %d records under %d keys made %.0f allocations, want at most %d", records, keys, allocs, 4*keys)
	}
}

// TestReduceAllocatesNothingPerGroup drives the group loop reducers and
// combiners share over an ordered run of 1 000 keys × 5 values, walked
// in place as a combiner walks it, with a reducer that allocates
// nothing itself: the loop's allocations are a handful for the whole
// run, none per group — one Values serves every key, and a run's keys
// reach the reducer as views, not copies.
func TestReduceAllocatesNothingPerGroup(t *testing.T) {
	const keys, perKey = 1_000, 5
	var tab keyTable
	runs := make([]run, 1)
	for i := 0; i < keys*perKey; i++ {
		tab.add(runs, fmt.Sprintf("key%04d", i%keys), []byte{byte(i)})
	}
	r := runs[0]
	r.order()
	var groups, values int
	count := ReducerFunc(func(_ string, vals *Values, _ Emit) error {
		groups++
		for _, ok := vals.Next(); ok; _, ok = vals.Next() {
			values++
		}
		return vals.Err()
	})
	allocs := testing.AllocsPerRun(3, func() {
		groups, values = 0, 0
		_, err := drainGroups(&Values{r: &r}, count, func(string, []byte) {}, func() error { return nil })
		if err != nil {
			t.Fatal(err)
		}
	})
	if groups != keys || values != keys*perKey {
		t.Fatalf("reducer saw %d groups of %d values, want %d of %d", groups, values, keys, keys*perKey)
	}
	if allocs > 16 {
		t.Errorf("reducing %d groups made %.0f allocations, want at most 16", keys, allocs)
	}
}

// TestRunIsCutBeforeItsOffsetsCouldWrap lowers the limit a run's uint32
// offsets and counts impose: an unbudgeted job then cuts its runs by
// the same spill a budget makes, and its output is the uncut job's. A
// run accounts for its records, or, when it folds the sum combiner, for
// its distinct keys: a limit of exactly what the split's keys account
// for cuts nothing there, and one byte less cuts.
func TestRunIsCutBeforeItsOffsetsCouldWrap(t *testing.T) {
	lines := wcCorpus(300) // one split: about 1200 records under 309 keys
	job := func(combiner Reducer, limit int64) (map[string][]byte, Counters) {
		defer SetRunLimit(limit)()
		c := testCluster(1, 64*units.KiB)
		if err := writeCorpus(c, "/in/cut", lines); err != nil {
			t.Fatal(err)
		}
		res, err := Run(c, Config{
			Inputs: []string{"/in/cut"}, OutputDir: "/out/cut",
			Mapper: wordCountMapper, Combiner: combiner, Reducer: SumReducer(), NumReducers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return readParts(t, c, res.OutputFiles), res.Counters
	}
	keys, seen := int64(0), map[string]bool{}
	for _, line := range lines {
		for _, w := range strings.Fields(line) {
			if !seen[w] {
				seen[w], keys = true, keys+int64(len(w))+kvOverhead
			}
		}
	}
	want, uncut := job(nil, math.MaxUint32)
	for _, tc := range []struct {
		name     string
		combiner Reducer
		limit    int64
		runs     func(int64) bool
	}{
		{"records", nil, 20_000, func(n int64) bool { return n == 3 }}, // 1200 records account for about 67 KB
		{"keys", SumReducer(), keys, func(n int64) bool { return n == 0 }},
		{"keys-1", SumReducer(), keys - 1, func(n int64) bool { return n > 0 }},
	} {
		got, cut := job(tc.combiner, tc.limit)
		if uncut.SpillRuns != 0 || !tc.runs(cut.SpillRuns) {
			t.Fatalf("%s: runs cut: %d without the limit, %d under %d B", tc.name, uncut.SpillRuns, cut.SpillRuns, tc.limit)
		}
		for name := range want {
			if !bytes.Equal(got[name], want[name]) {
				t.Errorf("%s: %s differs once the run is cut:\n got %q\nwant %q", tc.name, name, got[name], want[name])
			}
		}
	}

	defer SetRunLimit(kvOverhead + 8)()
	for _, combiner := range []Reducer{nil, SumReducer()} {
		col := newMapCollector(testRuntime(Config{Combiner: combiner}), "", 0)
		if col.add("a-key-longer-than-eight", []byte("1")); col.err == nil {
			t.Errorf("combiner %T: a record larger than the limit was buffered", combiner)
		}
	}
}

// countWordsLines are the lines the built-in wordcount's field loop is
// held to bytes.Fields on, and FuzzCountWords's seeds.
var countWordsLines = []string{
	"", " ", "a", " a ", "fish  embryo\tplate\v\f\rwell",
	"naïve café no-break  em　ideographicnel",
	"bad\xffutf8 \xc2 trailing\xe2\x80", "  x ",
}

// TestCountWordsSplitsLikeBytesFields holds the built-in wordcount's
// field loop to the rule it replaced.
func TestCountWordsSplitsLikeBytesFields(t *testing.T) {
	for _, line := range countWordsLines {
		splitsLikeFields(t, []byte(line))
	}
}

// FuzzCountWords: whatever the line, countWords splits it exactly as
// bytes.Fields does.
func FuzzCountWords(f *testing.F) {
	for _, line := range countWordsLines {
		f.Add([]byte(line))
	}
	for _, line := range []string{"\u0085a\u0085", "a\u00a0b", "em\u2003space", "\xff\xfe \x80x", "cut at the end \xe2\x80"} {
		f.Add([]byte(line))
	}
	f.Fuzz(splitsLikeFields)
}

func splitsLikeFields(t *testing.T, line []byte) {
	var got []string
	err := countWords("", line, func(key string, value []byte) {
		if string(value) != "1" {
			t.Errorf("%q: value %q", line, value)
		}
		got = append(got, strings.Clone(key))
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, f := range bytes.Fields(line) {
		want = append(want, string(f))
	}
	if fmt.Sprintf("%q", got) != fmt.Sprintf("%q", want) {
		t.Errorf("%q: fields %q, bytes.Fields has %q", line, got, want)
	}
}

// segmentOf encodes records the way writeRun does.
func segmentOf(keys []string, vals ...string) []byte {
	var seg []byte
	for i, k := range keys {
		seg = binary.AppendUvarint(seg, uint64(len(k)))
		seg = binary.AppendUvarint(seg, uint64(len(vals[i])))
		seg = append(append(seg, k...), vals[i]...)
	}
	return seg
}

// FuzzSpillCursor feeds the segment cursor bytes as they might arrive
// from another worker's shuffle server or a DFS block: it never panics,
// and a segment that is intact by a plain reading of the format decodes
// to exactly the records in it. buffered is how much of the segment the
// cursor starts with in hand; the rest it reads in chunks.
func FuzzSpillCursor(f *testing.F) {
	col := newMapCollector(testRuntime(Config{NumReducers: 2}), "", 0)
	collect(col, sortInputs(300, 3)["zipf"])
	if _, err := col.writeRun(); err != nil {
		f.Fatal(err)
	}
	r, err := col.rt.store.Open(col.out.spills[0].File, "")
	if err != nil {
		f.Fatal(err)
	}
	defer r.Close()
	for _, seg := range col.out.spills[0].Segs {
		real := make([]byte, seg.Len)
		if _, err := r.ReadAt(real, seg.Off); err != nil {
			f.Fatal(err)
		}
		f.Add(real, seg.Records, uint(0))
		f.Add(real, seg.Records, uint(len(real)))
		f.Add(real[:len(real)/2], seg.Records, uint(7))
		f.Add(real[:len(real)-1], seg.Records, uint(len(real)))
	}
	f.Add(segmentOf([]string{"k", ""}, "v", ""), 2, uint(3))
	huge := binary.AppendUvarint(nil, 1<<63+5) // int(keyLen) < 0
	f.Add(append(append(huge, 1), "kv"...), 1, uint(64))
	f.Add(append(binary.AppendUvarint([]byte{1}, 1<<63+5), "kv"...), 1, uint(0)) // int(valLen) < 0
	f.Add(bytes.Repeat([]byte{0xff}, 11), 1, uint(11))                           // a length that overflows 64 bits

	f.Fuzz(func(t *testing.T, seg []byte, records int, buffered uint) {
		if records < 0 || records > 1<<16 {
			return
		}
		// The plain reading: records back to back, nothing left over.
		var keys, vals []string
		rest, intact := seg, true
		for i := 0; i < records && intact; i++ {
			kl, n1 := binary.Uvarint(rest)
			vl, n2 := binary.Uvarint(rest[max(n1, 0):])
			if intact = n1 > 0 && n2 > 0 && kl <= uint64(len(rest)) && vl <= uint64(len(rest)) && n1+n2+int(kl)+int(vl) <= len(rest); intact {
				rest = rest[n1+n2:]
				keys, vals = append(keys, string(rest[:kl])), append(vals, string(rest[kl:kl+vl]))
				rest = rest[kl+vl:]
			}
		}
		intact = intact && len(rest) == 0

		n := min(int(buffered%uint(len(seg)+1)), len(seg))
		cur := &spillCursor{buf: seg[:n:n], r: bytes.NewReader(seg[n:]), rest: int64(len(seg) - n), left: records, file: "fuzz"}
		for i := 0; ; i++ {
			key, val, ok, err := cur.next()
			if err != nil || !ok {
				if intact && (err != nil || i != records) {
					t.Fatalf("intact segment of %d records: cursor stopped after %d: %v", records, i, err)
				}
				return
			}
			if intact && (key != keys[i] || string(val) != vals[i]) {
				t.Fatalf("record %d: cursor has (%q, %q), the segment holds (%q, %q)", i, key, val, keys[i], vals[i])
			}
		}
	})
}
