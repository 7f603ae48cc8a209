package workloads

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/adal"
	"repro/internal/dfs"
	"repro/internal/ingest"
	"repro/internal/mapreduce"
	"repro/internal/metadata"
	"repro/internal/units"
)

func TestMicroscopyCounts(t *testing.T) {
	cfg := DefaultMicroscopy()
	cfg.Plates = 2
	// 2 plates × 96 wells × 1 fish × 24 images × 2 channels = 9216.
	if got := cfg.TotalImages(); got != 9216 {
		t.Fatalf("images = %d", got)
	}
	if got := cfg.TotalBytes(); got != units.Bytes(9216)*4*units.MB {
		t.Fatalf("bytes = %v", got)
	}
}

func TestMicroscopyProducerEnumeratesAll(t *testing.T) {
	cfg := DefaultMicroscopy()
	cfg.Plates = 1
	cfg.WellsPerPlate = 3
	cfg.ImagesPerFish = 2
	cfg.ImageSize = 128
	cfg.Channels = []string{"488nm"}
	p := NewMicroscopy(cfg)
	paths := map[string]bool{}
	n := 0
	for {
		obj, err := p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if paths[obj.Path] {
			t.Fatalf("duplicate path %s", obj.Path)
		}
		paths[obj.Path] = true
		if obj.Basic["wavelength"] != "488nm" {
			t.Fatalf("basic = %v", obj.Basic)
		}
		n++
	}
	if n != cfg.TotalImages() {
		t.Fatalf("produced %d, want %d", n, cfg.TotalImages())
	}
}

func TestMicroscopyIngestEndToEnd(t *testing.T) {
	layer := adal.NewLayer()
	if err := layer.Mount("/", adal.NewMemFS("store")); err != nil {
		t.Fatal(err)
	}
	meta := metadata.NewStore()
	cfg := DefaultMicroscopy()
	cfg.Plates = 1
	cfg.WellsPerPlate = 4
	cfg.ImageSize = 1024
	pipe := ingest.New(layer, meta, ingest.Config{Workers: 4})
	stats, err := pipe.Run(context.Background(), NewMicroscopy(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if int(stats.Objects) != cfg.TotalImages() {
		t.Fatalf("ingested %d, want %d", stats.Objects, cfg.TotalImages())
	}
	if got := meta.Find(metadata.Query{Tags: []string{"microscopy"}}); len(got) != cfg.TotalImages() {
		t.Fatalf("registered = %d", len(got))
	}
}

func TestFrameReaderDeterministic(t *testing.T) {
	read := func() []byte {
		r := NewFrameReader(1000, 42)
		data, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := read(), read()
	if !bytes.Equal(a, b) {
		t.Fatal("frame reader not deterministic")
	}
	if len(a) != 1000 {
		t.Fatalf("len = %d", len(a))
	}
	r2 := NewFrameReader(1000, 43)
	c, _ := io.ReadAll(r2)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical frames")
	}
}

// Property: FrameReader yields exactly n bytes regardless of buffer
// slicing, and content is independent of read chunking.
func TestFrameReaderChunkingQuick(t *testing.T) {
	f := func(n uint16, chunk uint8) bool {
		size := int64(n%4096) + 1
		step := int(chunk%63) + 1
		whole, _ := io.ReadAll(NewFrameReader(size, 7))
		r := NewFrameReader(size, 7)
		var parts []byte
		buf := make([]byte, step)
		for {
			k, err := r.Read(buf)
			parts = append(parts, buf[:k]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				return false
			}
		}
		return bytes.Equal(whole, parts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGenomeAndReads(t *testing.T) {
	g := GenerateGenome(10_000, 5)
	if len(g) != 10_000 {
		t.Fatalf("genome len = %d", len(g))
	}
	for _, b := range g {
		if b != 'A' && b != 'C' && b != 'G' && b != 'T' {
			t.Fatalf("bad base %c", b)
		}
	}
	reads := GenerateReads(g, ReadsConfig{ReadLen: 50, Coverage: 10, ErrorRate: 0.01, Seed: 6})
	lines := bytes.Count(reads, []byte("\n"))
	want := int(10.0 * 10_000 / 50)
	if lines != want {
		t.Fatalf("reads = %d, want %d", lines, want)
	}
	// Zero error rate: every read matches the genome at its position.
	clean := GenerateReads(g, ReadsConfig{ReadLen: 50, Coverage: 2, ErrorRate: 0, Seed: 7})
	for _, line := range strings.Split(strings.TrimSpace(string(clean)), "\n") {
		parts := strings.Split(line, "\t")
		pos, _ := strconv.Atoi(parts[1])
		if string(g[pos:pos+50]) != parts[2] {
			t.Fatalf("read at %d does not match genome", pos)
		}
	}
}

func mrCluster(t *testing.T, blockSize units.Bytes) *dfs.Cluster {
	t.Helper()
	c := dfs.NewCluster(dfs.Config{BlockSize: blockSize, Replication: 2, Seed: 3})
	for i := 0; i < 4; i++ {
		if _, err := c.AddDataNode(fmt.Sprintf("dn%d", i), fmt.Sprintf("rack%d", i%2), units.GiB); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestKMerCountingJob(t *testing.T) {
	g := GenerateGenome(2000, 5)
	reads := GenerateReads(g, ReadsConfig{ReadLen: 40, Coverage: 5, ErrorRate: 0, Seed: 6})
	c := mrCluster(t, 4096)
	if err := c.WriteFile("/dna/reads", "", reads); err != nil {
		t.Fatal(err)
	}
	k := 8
	res, err := mapreduce.Run(c, mapreduce.Config{
		Name:   "kmer-count",
		Inputs: []string{"/dna/reads"}, OutputDir: "/dna/kmers",
		Mapper: KMerMapper(k), Reducer: mapreduce.SumReducer(), Combiner: mapreduce.SumReducer(),
		NumReducers: 2, Locality: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := mapreduce.ReadTextOutput(c, res.OutputFiles)
	if err != nil {
		t.Fatal(err)
	}
	// Total k-mer occurrences = sum over reads of (readLen - k + 1).
	nReads := int(5.0 * 2000 / 40)
	wantTotal := nReads * (40 - k + 1)
	total := 0
	for kmer, vals := range out {
		if len(kmer) != k {
			t.Fatalf("bad k-mer %q", kmer)
		}
		n, _ := strconv.Atoi(vals[0])
		total += n
	}
	if total != wantTotal {
		t.Fatalf("k-mer total = %d, want %d", total, wantTotal)
	}
}

func TestCoverageJob(t *testing.T) {
	g := GenerateGenome(1000, 5)
	reads := GenerateReads(g, ReadsConfig{ReadLen: 50, Coverage: 4, ErrorRate: 0, Seed: 6})
	c := mrCluster(t, 4096)
	if err := c.WriteFile("/dna/reads", "", reads); err != nil {
		t.Fatal(err)
	}
	res, err := mapreduce.Run(c, mapreduce.Config{
		Inputs: []string{"/dna/reads"}, OutputDir: "/dna/cov",
		Mapper: CoverageMapper(100), Reducer: mapreduce.SumReducer(), Combiner: mapreduce.SumReducer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := mapreduce.ReadTextOutput(c, res.OutputFiles)
	// Total covered positions = nReads × readLen.
	nReads := int(4.0 * 1000 / 50)
	want := nReads * 50
	total := 0
	for _, vals := range out {
		n, _ := strconv.Atoi(vals[0])
		total += n
	}
	if total != want {
		t.Fatalf("coverage total = %d, want %d", total, want)
	}
}

func TestMIPJobMatchesSequential(t *testing.T) {
	cfg := VolumeConfig{Width: 32, Height: 16, Depth: 10, Seed: 9}
	// Sequential reference MIP.
	ref := make([]byte, cfg.Width*cfg.Height)
	var volume []byte
	for z := 0; z < cfg.Depth; z++ {
		slab := cfg.GenerateSlab(z)
		volume = append(volume, slab...)
		for i, b := range slab {
			if b > ref[i] {
				ref[i] = b
			}
		}
	}
	// MR MIP: block size = slab size so each split is one slab.
	c := mrCluster(t, cfg.SlabBytes())
	if err := c.WriteFile("/vol/raw", "", volume); err != nil {
		t.Fatal(err)
	}
	res, err := mapreduce.Run(c, mapreduce.Config{
		Inputs: []string{"/vol/raw"}, OutputDir: "/vol/mip",
		Mapper: MIPMapper(cfg), Reducer: MIPReducer,
		Format: mapreduce.WholeSplitInput, Locality: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := mapreduce.ReadTextOutput(c, res.OutputFiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != cfg.Height {
		t.Fatalf("rows = %d, want %d", len(out), cfg.Height)
	}
	for y := 0; y < cfg.Height; y++ {
		got := out[fmt.Sprintf("row-%05d", y)][0]
		want := string(ref[y*cfg.Width : (y+1)*cfg.Width])
		if got != want {
			t.Fatalf("MIP row %d differs from sequential reference", y)
		}
	}
}

func TestKatrinHistogramJob(t *testing.T) {
	events := KatrinRun(5000, 11)
	c := mrCluster(t, 8192)
	if err := c.WriteFile("/katrin/run1", "", events); err != nil {
		t.Fatal(err)
	}
	res, err := mapreduce.Run(c, mapreduce.Config{
		Inputs: []string{"/katrin/run1"}, OutputDir: "/katrin/hist",
		Mapper: PixelHistogramMapper, Reducer: mapreduce.SumReducer(), Combiner: mapreduce.SumReducer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := mapreduce.ReadTextOutput(c, res.OutputFiles)
	total := 0
	for pixel, vals := range out {
		if !strings.HasPrefix(pixel, "pixel-") {
			t.Fatalf("bad key %q", pixel)
		}
		n, _ := strconv.Atoi(vals[0])
		total += n
	}
	if total != 5000 {
		t.Fatalf("histogram total = %d", total)
	}
}

func TestEnergyBands(t *testing.T) {
	events := KatrinRun(1000, 11)
	c := mrCluster(t, 8192)
	if err := c.WriteFile("/katrin/run2", "", events); err != nil {
		t.Fatal(err)
	}
	res, err := mapreduce.Run(c, mapreduce.Config{
		Inputs: []string{"/katrin/run2"}, OutputDir: "/katrin/bands",
		Mapper: EnergyBandMapper, Reducer: mapreduce.SumReducer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := mapreduce.ReadTextOutput(c, res.OutputFiles)
	total := 0
	for _, vals := range out {
		n, _ := strconv.Atoi(vals[0])
		total += n
	}
	if total != 1000 {
		t.Fatalf("band total = %d", total)
	}
}

func TestClimateGrid(t *testing.T) {
	grid := ClimateGrid(10, 20, 3)
	lines := bytes.Count(grid, []byte("\n"))
	if lines != 200 {
		t.Fatalf("cells = %d", lines)
	}
	if !bytes.Equal(grid, ClimateGrid(10, 20, 3)) {
		t.Fatal("climate grid not deterministic")
	}
}

// TestPaddedMatchesFmt holds the mappers' key formatting to the
// fmt.Sprintf calls it replaced, so keys — and with them partitions and
// output bytes — are what they were.
func TestPaddedMatchesFmt(t *testing.T) {
	for _, n := range []int{0, 7, 99_999, 100_000, 12_345_678, 123_456_789, -1, -18_500} {
		if got, want := string(padded([]byte("band-"), n, 5)), fmt.Sprintf("band-%05d", n); got != want {
			t.Errorf("padded(%d, 5) = %q, fmt has %q", n, got, want)
		}
		if got, want := string(padded([]byte("x"), n, 8)), fmt.Sprintf("x%08d", n); got != want {
			t.Errorf("padded(%d, 8) = %q, fmt has %q", n, got, want)
		}
	}
}
