package workloads

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/mapreduce"
)

// The DNA workload reproduces "DNA sequencing and reconstruction
// using Hadoop tools" (slide 13): a synthetic genome is sampled into
// error-bearing short reads, and MapReduce jobs count k-mers and
// build a coverage profile — the core primitives of 2011-era
// sequencing pipelines (k-mer spectra for error correction, coverage
// for assembly validation).

var bases = []byte("ACGT")

// GenerateGenome returns a deterministic pseudo-genome of length n.
func GenerateGenome(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	g := make([]byte, n)
	for i := range g {
		g[i] = bases[rng.Intn(4)]
	}
	return g
}

// ReadsConfig controls read sampling.
type ReadsConfig struct {
	ReadLen   int     // bases per read
	Coverage  float64 // mean genome coverage
	ErrorRate float64 // per-base substitution probability
	Seed      int64
}

// GenerateReads samples reads uniformly over the genome, one per
// line: "<id>\t<position>\t<sequence>". Position is included so tests
// can verify coverage accounting.
func GenerateReads(genome []byte, cfg ReadsConfig) []byte {
	rng := rand.New(rand.NewSource(cfg.Seed))
	nReads := int(cfg.Coverage * float64(len(genome)) / float64(cfg.ReadLen))
	var buf bytes.Buffer
	for i := 0; i < nReads; i++ {
		pos := rng.Intn(len(genome) - cfg.ReadLen + 1)
		read := make([]byte, cfg.ReadLen)
		copy(read, genome[pos:pos+cfg.ReadLen])
		for j := range read {
			if rng.Float64() < cfg.ErrorRate {
				read[j] = bases[rng.Intn(4)]
			}
		}
		fmt.Fprintf(&buf, "r%06d\t%d\t%s\n", i, pos, read)
	}
	return buf.Bytes()
}

// KMerMapper emits every k-mer of each read with count 1; combined
// with mapreduce.SumReducer it produces the k-mer spectrum.
func KMerMapper(k int) mapreduce.Mapper {
	return mapreduce.MapperFunc(func(_ string, value []byte, emit mapreduce.Emit) error {
		parts := strings.Split(string(value), "\t")
		if len(parts) != 3 {
			return fmt.Errorf("dnaseq: malformed read line %q", value)
		}
		seq := parts[2]
		for i := 0; i+k <= len(seq); i++ {
			emit(seq[i:i+k], one)
		}
		return nil
	})
}

var one = []byte("1")

// CoverageMapper emits one count per genome position covered by each
// read, keyed by position bucket (bucketSize positions per key) to
// keep reducer fan-in bounded.
func CoverageMapper(bucketSize int) mapreduce.Mapper {
	return mapreduce.MapperFunc(func(_ string, value []byte, emit mapreduce.Emit) error {
		parts := strings.Split(string(value), "\t")
		if len(parts) != 3 {
			return fmt.Errorf("dnaseq: malformed read line %q", value)
		}
		pos, err := strconv.Atoi(parts[1])
		if err != nil {
			return err
		}
		var key [20]byte
		for p := pos; p < pos+len(parts[2]); p++ {
			emit.Bytes(padded(key[:0], p/bucketSize, 8), one)
		}
		return nil
	})
}

// padded appends n to dst as %0*d formats it — a key built in the
// caller's buffer, without fmt and without allocating.
func padded(dst []byte, n, width int) []byte {
	if n < 0 {
		dst, n, width = append(dst, '-'), -n, width-1
	}
	var num [20]byte
	digits := strconv.AppendInt(num[:0], int64(n), 10)
	for d := len(digits); d < width; d++ {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}

// StreamSumReducer is mapreduce.SumReducer on the streaming reduce interface:
// it folds each count as it comes off the shuffle merge, so a group
// of any cardinality costs O(1) reducer memory — the shape to use
// with Config.ShuffleMemory on high-fan-in keys.
var StreamSumReducer = mapreduce.StreamReducerFunc(func(key string, values *mapreduce.Values, emit mapreduce.Emit) error {
	sum := 0
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		n, err := strconv.Atoi(string(v))
		if err != nil {
			return err
		}
		sum += n
	}
	if err := values.Err(); err != nil {
		return err
	}
	emit(key, []byte(strconv.Itoa(sum)))
	return nil
})
