package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Everything the facility is fed comes from here, and all of it is a
// pure function of the seed: payload bytes, paths, offsets, the op
// sequence of every client and the wordcount corpus.

const stampBlock = 64 << 10

// payloads generates and checks object contents without hashing: every
// 64 KiB block of every object is one seed-derived base pattern whose
// first 16 bytes are overwritten with an (object, block) stamp. A
// check is therefore a 16-byte compare plus a bytes.Equal against the
// base per block — memcmp speed, and nothing is stored per object.
// A per-op SHA-256 would cost ~160 us per 256 KiB on this box, a
// quarter of a read-hot op, on the same two cores the facility uses.
type payloads struct {
	base []byte
}

func newPayloads(seed int64) *payloads {
	p := &payloads{base: make([]byte, stampBlock)}
	rand.New(rand.NewSource(seed ^ 0x5eed0b1ec7)).Read(p.base)
	return p
}

// fill writes the content of object obj, starting at byte offset off
// (a multiple of 64 KiB), into dst.
func (p *payloads) fill(dst []byte, obj uint64, off int64) {
	blk := uint64(off / stampBlock)
	for len(dst) > 0 {
		n := copy(dst, p.base)
		if n >= 16 {
			binary.LittleEndian.PutUint64(dst[0:8], obj)
			binary.LittleEndian.PutUint64(dst[8:16], blk)
		}
		dst = dst[n:]
		blk++
	}
}

// make returns a fresh buffer holding object obj.
func (p *payloads) make(obj uint64, size int) []byte {
	b := make([]byte, size)
	p.fill(b, obj, 0)
	return b
}

// check reports whether got is exactly the bytes of object obj from
// offset off (a multiple of 64 KiB) on.
func (p *payloads) check(got []byte, obj uint64, off int64) bool {
	blk := uint64(off / stampBlock)
	for len(got) > 0 {
		n := len(got)
		if n > stampBlock {
			n = stampBlock
		}
		if n >= 16 {
			if binary.LittleEndian.Uint64(got[0:8]) != obj || binary.LittleEndian.Uint64(got[8:16]) != blk {
				return false
			}
			if !bytes.Equal(got[16:n], p.base[16:n]) {
				return false
			}
		} else if !bytes.Equal(got[:n], p.base[:n]) {
			return false
		}
		got = got[n:]
		blk++
	}
	return true
}

// Object identifiers: the top byte is the key space, then the owning
// client, then the index within it. They are what the stamp carries.
const (
	spaceHot uint64 = iota + 1
	spaceCold
	spaceIngest
	spaceShared
	spaceOwn
	spaceTrace
)

func objID(space uint64, client, index int) uint64 {
	return space<<56 | uint64(client)<<40 | uint64(index)
}

// opKind is what one generated operation does.
type opKind byte

const (
	opGet opKind = iota + 1
	opGetRange
	opPut
	opDelete
	opIngest
	opJob
)

// op is one generated operation: a kind, the object it touches (or the
// batch / job index) and, for range reads, the offset.
type op struct {
	Kind opKind
	Obj  uint64
	Path string
	Off  int64
	Len  int64
}

// opGen yields a client's op sequence. It is a deterministic state
// machine: the sequence depends on the seed and the client index only,
// never on timing or on what the facility answered.
type opGen interface {
	next() op
}

func clientRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(client)*7919 + 17))
}

// ---- read-hot ----------------------------------------------------------

const (
	hotObjects = 128
	hotSize    = 256 << 10
)

func hotPath(i int) string { return fmt.Sprintf("/sites/bench/hot/o%04d", i) }

// zipfGen reads whole objects of one shared key space, Zipf(1.1) over
// their indices: read-hot's ops and the shared-set reads of mixed-rw.
type zipfGen struct {
	zipf  *rand.Zipf
	space uint64
	path  func(int) string
}

func newZipfGen(rng *rand.Rand, objects int, space uint64, path func(int) string) *zipfGen {
	return &zipfGen{zipf: rand.NewZipf(rng, 1.1, 1, uint64(objects-1)), space: space, path: path}
}

func (g *zipfGen) next() op {
	i := int(g.zipf.Uint64())
	return op{Kind: opGet, Obj: objID(g.space, 0, i), Path: g.path(i), Len: hotSize}
}

// ---- read-cold ---------------------------------------------------------

const (
	coldObjects = 64
	coldSize    = 2 << 20
	coldRange   = 256 << 10
)

func coldPath(i int) string { return fmt.Sprintf("/sites/bench/cold/o%03d", i) }

type coldGen struct {
	rng     *rand.Rand
	objects int
	size    int64
}

func (g *coldGen) next() op {
	i := g.rng.Intn(g.objects)
	slots := int((g.size-coldRange)/stampBlock) + 1
	off := int64(g.rng.Intn(slots)) * stampBlock
	return op{Kind: opGetRange, Obj: objID(spaceCold, 0, i), Path: coldPath(i), Off: off, Len: coldRange}
}

// ---- ingest-durable ----------------------------------------------------

const (
	ingestBatch   = 16
	ingestObjSize = 4 << 10
	ingestProject = "bench-daq"
	// The in-memory sites keep every ingested byte, so peak RSS at the
	// end of a run would rise with throughput and a faster ingest would
	// read as a regression. ingest-durable reads the high-water mark as
	// each of the batches ingestRSSFrom+1..ingestRSSTo is acked and
	// reports the mean: the same stored data on every run (a facility
	// four times slower than today's still gets there in 20 s), and the
	// steps the mark takes with every GC cycle, 7 % of it at a time,
	// average out.
	ingestRSSFrom = 256
	ingestRSSTo   = 512
)

func ingestPath(client, batch, i int) string {
	return fmt.Sprintf("/sites/ing/c%d/b%06d/o%02d", client, batch, i)
}

// ingestGen numbers batches; the content of a batch is a function of
// (seed, client, batch) through the payload stamp.
type ingestGen struct {
	client int
	batch  int
}

func (g *ingestGen) next() op {
	o := op{Kind: opIngest, Obj: objID(spaceIngest, g.client, g.batch*ingestBatch), Path: ingestPath(g.client, g.batch, 0)}
	g.batch++
	return o
}

// ---- mixed-rw ----------------------------------------------------------

const (
	mixedRecent = 8
	// mixedOwnCap bounds each client's live own objects. Below it the
	// PUT/DELETE shares are the 20 %/10 % the workload is named for;
	// at or above it they swap, so the live set hovers at the cap. An
	// unbounded 20/10 mix would grow the in-memory sites by ~85 MB/s
	// and make peak RSS a function of throughput.
	mixedOwnCap = 64
)

func sharedPath(i int) string { return fmt.Sprintf("/sites/bench/rw/shared/o%04d", i) }
func ownPath(client, i int) string {
	return fmt.Sprintf("/sites/bench/rw/c%d/o%07d", client, i)
}

type mixedGen struct {
	rng     *rand.Rand
	shared  *zipfGen
	client  int
	own     []int // indices of the client's live own objects, oldest first
	nextOwn int
}

func newMixedGen(seed int64, client, shared int) *mixedGen {
	rng := clientRand(seed, client)
	return &mixedGen{
		rng:    rng,
		shared: newZipfGen(rand.New(rand.NewSource(rng.Int63())), shared, spaceShared, sharedPath),
		client: client,
	}
}

func (g *mixedGen) next() op {
	u := g.rng.Float64()
	putShare := 0.20
	if len(g.own) >= mixedOwnCap {
		putShare = 0.10
	}
	switch {
	case u < 0.70:
		if len(g.own) == 0 || g.rng.Intn(2) == 0 {
			return g.shared.next()
		}
		recent := len(g.own)
		if recent > mixedRecent {
			recent = mixedRecent
		}
		i := g.own[len(g.own)-1-g.rng.Intn(recent)]
		return op{Kind: opGet, Obj: objID(spaceOwn, g.client, i), Path: ownPath(g.client, i), Len: hotSize}
	case u < 0.70+putShare || len(g.own) == 0:
		i := g.nextOwn
		g.nextOwn++
		g.own = append(g.own, i)
		return op{Kind: opPut, Obj: objID(spaceOwn, g.client, i), Path: ownPath(g.client, i), Len: hotSize}
	default:
		i := g.own[0]
		g.own = g.own[1:]
		return op{Kind: opDelete, Obj: objID(spaceOwn, g.client, i), Path: ownPath(g.client, i)}
	}
}

// ---- compute-wc --------------------------------------------------------

const (
	corpusPath    = "/bench/corpus.txt" // DFS name; /hdfs/bench/corpus.txt through the gateway
	corpusSize    = 1 << 20
	corpusVocab   = 2000
	corpusWordLen = 24
)

func jobOutputDir(prefix string, i int) string { return fmt.Sprintf("/bench/%s/j%06d", prefix, i) }

type jobGen struct{ i int }

func (g *jobGen) next() op {
	o := op{Kind: opJob, Obj: uint64(g.i), Path: jobOutputDir("out", g.i)}
	g.i++
	return o
}

// makeCorpus returns a text of about size bytes, lines of Zipf-drawn
// words, and the generator's own tally of every word. The words are
// 24-mers over ACGT — the sequencing community's wordcount is a k-mer
// count — which keeps a 1 MiB corpus at ~42k records: map compute is
// then a minor share of a job and the control plane the rest. With
// 3-letter words the same megabyte is 230k records, the four map slots
// saturate both cores, heartbeats miss their lease and the master
// re-runs tasks of workers it wrongly presumes dead.
func makeCorpus(seed int64, size int) ([]byte, map[string]int) {
	rng := rand.New(rand.NewSource(seed ^ 0xc0ffee))
	vocab := make([]string, corpusVocab)
	for i := range vocab {
		kmer := make([]byte, corpusWordLen)
		for j := range kmer {
			kmer[j] = "ACGT"[rng.Intn(4)]
		}
		vocab[i] = string(kmer)
	}
	zipf := rand.NewZipf(rng, 1.1, 1, corpusVocab-1)
	var b bytes.Buffer
	b.Grow(size + 128)
	tally := make(map[string]int)
	for b.Len() < size {
		words := 6 + rng.Intn(10)
		for w := 0; w < words; w++ {
			word := vocab[zipf.Uint64()]
			tally[word]++
			if w > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(word)
		}
		b.WriteByte('\n')
	}
	return b.Bytes(), tally
}

// checkWordcount reports whether the part files together hold exactly
// the tally: every word once, with its count, and nothing else.
func checkWordcount(parts [][]byte, want map[string]int) bool {
	seen := 0
	for _, part := range parts {
		for _, line := range strings.Split(strings.TrimSuffix(string(part), "\n"), "\n") {
			if line == "" {
				continue
			}
			word, count, ok := strings.Cut(line, "\t")
			if !ok {
				return false
			}
			n, err := strconv.Atoi(count)
			if err != nil || want[word] != n {
				return false
			}
			seen++
		}
	}
	return seen == len(want)
}

// ack is one dataset the facility acknowledged as durably registered.
type ack struct {
	Path string
	ID   string
}

// checkRecovered counts the acked datasets that lookup still finds,
// under the same ID, after a reopen.
func checkRecovered(acked []ack, lookup func(path string) (id string, ok bool)) (found int) {
	for _, a := range acked {
		if id, ok := lookup(a.Path); ok && id == a.ID {
			found++
		}
	}
	return found
}

// opsDigest hashes the generated inputs: a digest of the workload's
// payload source plus the first digestOps ops of every client's
// sequence. Same seed, same digest; the benchmark prints it so two
// runs can be shown to have driven the same load.
const digestOps = 512

func opsDigest(inputs []byte, gens []opGen) string {
	h := sha256.New()
	h.Write(inputs)
	var buf [8]byte
	for c, g := range gens {
		fmt.Fprintf(h, "client %d\n", c)
		for i := 0; i < digestOps; i++ {
			o := g.next()
			h.Write([]byte{byte(o.Kind)})
			binary.LittleEndian.PutUint64(buf[:], o.Obj)
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], uint64(o.Off))
			h.Write(buf[:])
			h.Write([]byte(o.Path))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
