package mapreduce

import (
	"errors"
	"strconv"
	"strings"
	"testing"
)

func TestMapOnlyJob(t *testing.T) {
	c := testCluster(4, 64)
	if err := writeCorpus(c, "/in/m", []string{"a b", "c d", "e f"}); err != nil {
		t.Fatal(err)
	}
	upper := MapperFunc(func(_ string, v []byte, emit Emit) error {
		emit(strings.ToUpper(string(v)), []byte("x"))
		return nil
	})
	res, err := Run(c, Config{
		Inputs: []string{"/in/m"}, OutputDir: "/out/m",
		Mapper: upper, MapOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.ReduceTasks != 0 {
		t.Fatalf("reduce tasks = %d in map-only job", res.Counters.ReduceTasks)
	}
	if res.Counters.OutputRecords != 3 {
		t.Fatalf("output records = %d", res.Counters.OutputRecords)
	}
	// Output files are part-m-*.
	for _, f := range res.OutputFiles {
		if !strings.Contains(f, "part-m-") {
			t.Fatalf("map-only output file %q", f)
		}
	}
	got, err := ReadTextOutput(c, res.OutputFiles)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"A B", "C D", "E F"} {
		if len(got[k]) != 1 {
			t.Fatalf("missing %q in %v", k, got)
		}
	}
}

func TestRunChain(t *testing.T) {
	// Stage 1: wordcount. Stage 2: bucket counts into magnitudes
	// (reads stage 1's "word\tcount" lines).
	c := testCluster(4, 128)
	lines := make([]string, 100)
	for i := range lines {
		lines[i] = "frequent frequent rare" // frequent:200, rare:100
	}
	if err := writeCorpus(c, "/in/chain", lines); err != nil {
		t.Fatal(err)
	}
	bucket := MapperFunc(func(_ string, v []byte, emit Emit) error {
		parts := strings.SplitN(string(v), "\t", 2)
		if len(parts) != 2 {
			return nil
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			return err
		}
		switch {
		case n >= 150:
			emit("high", []byte("1"))
		default:
			emit("low", []byte("1"))
		}
		return nil
	})
	results, err := RunChain(c, []Config{
		{Name: "wordcount", Inputs: []string{"/in/chain"}, OutputDir: "/chain/1",
			Mapper: wordCountMapper, Reducer: SumReducer()},
		{Name: "bucket", OutputDir: "/chain/2",
			Mapper: bucket, Reducer: SumReducer()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	got, err := ReadTextOutput(c, results[1].OutputFiles)
	if err != nil {
		t.Fatal(err)
	}
	if got["high"][0] != "1" || got["low"][0] != "1" {
		t.Fatalf("chain output = %v", got)
	}
}

func TestRunChainEmpty(t *testing.T) {
	c := testCluster(2, 128)
	if _, err := RunChain(c, nil); !errors.Is(err, ErrEmptyChain) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunChainStageFailure(t *testing.T) {
	c := testCluster(2, 128)
	if err := writeCorpus(c, "/in/cf", []string{"x"}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	results, err := RunChain(c, []Config{
		{Name: "ok", Inputs: []string{"/in/cf"}, OutputDir: "/cf/1",
			Mapper: wordCountMapper, Reducer: SumReducer()},
		{Name: "bad", OutputDir: "/cf/2",
			Mapper: MapperFunc(func(string, []byte, Emit) error { return boom })},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if len(results) != 1 {
		t.Fatalf("partial results = %d, want 1 (first stage)", len(results))
	}
}
