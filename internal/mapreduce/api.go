// Package mapreduce is an executable reimplementation of Hadoop
// MapReduce as used on the LSDF analysis cluster (slides 11/13: DNA
// sequencing and 3D biomedical visualization as "dedicated Hadoop
// applications"). It runs real map and reduce functions over files
// stored in the dfs package, with the scheduling behaviours the
// paper's era of Hadoop relied on: block-sized input splits,
// data-local task placement, per-task combiners, hash partitioning,
// sorted shuffles and speculative execution for stragglers.
//
// There is one scheduler, the Master (a JobTracker): it leases tasks to
// Workers (TaskTrackers) on their heartbeats, re-queues what a dead
// worker held, backs up stragglers and commits the first finisher.
// Workers reach it through mrpc.Control, which has two transports: JSON
// over HTTP (NewMaster + StartWorker, cmd/lsdf-worker, the facility's
// compute plane) and direct calls inside one process — Run, which gives
// a job a master without a listener and one worker per datanode. See
// DESIGN.md §12.
//
// The shuffle is an external sort-spill-merge: map tasks accumulate
// partitioned, sorted runs up to Config.ShuffleMemory, spill overflow
// runs as length-prefixed segment files into the DFS and write their
// last run there too; reduce tasks k-way heap-merge the runs' segments,
// streamed from the DFS or fetched from the mapper's worker, and stream
// grouped values to the reducer, so intermediate volume is bounded by
// the configured budget instead of the heap. See DESIGN.md §6 for the
// spill format and merge invariants.
package mapreduce

import (
	"io"
	"time"
	"unsafe"

	"repro/internal/units"
)

// Emit publishes one intermediate or output key/value pair. Both are
// copied before Emit returns and never retained; callers may reuse
// buffers.
type Emit func(key string, value []byte)

// Bytes is Emit for a key the caller holds as bytes: no string is
// allocated for it, and the same promise holds — key and value may be
// overwritten as soon as Bytes returns.
func (e Emit) Bytes(key, value []byte) { e(bytesString(key), value) }

// bytesString views b as a string without copying it. The string is
// only as immutable as b: it is for handing a key to code that copies
// or drops it before b next changes (an Emit, a merge over a run
// nothing writes while it is read), and the one place the package uses
// unsafe.
func bytesString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// Mapper transforms one input record into intermediate pairs. key and
// value are valid only during Map — with TextInput they are windows of
// the reader's buffers, overwritten by the next record — so a mapper
// that keeps either copies it.
type Mapper interface {
	Map(key string, value []byte, emit Emit) error
}

// MapperFunc adapts a function to the Mapper interface.
type MapperFunc func(key string, value []byte, emit Emit) error

// Map implements Mapper.
func (f MapperFunc) Map(key string, value []byte, emit Emit) error { return f(key, value, emit) }

// Reducer folds one key's values, streamed out of the shuffle merge in
// (map task, emission) order, into output pairs; the framework never
// materializes the group, so a reducer that folds as it reads holds
// O(1) memory however large the group. It also serves as the combiner
// type: combiners run per map task over that task's ordered run. key
// and every value are valid only during Reduce — a value only until
// the next values.Next — so a reducer that keeps either copies it.
type Reducer interface {
	Reduce(key string, values *Values, emit Emit) error
}

// ReducerFunc adapts a function to the Reducer interface.
type ReducerFunc func(key string, values *Values, emit Emit) error

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(key string, values *Values, emit Emit) error {
	return f(key, values, emit)
}

// InputFormat selects how splits become records.
type InputFormat int

// Input formats.
const (
	// TextInput yields one record per newline-terminated line; the key
	// is the byte offset (decimal string), the value the line without
	// its newline. Lines crossing split boundaries belong to the split
	// where they start, as in Hadoop's TextInputFormat.
	TextInput InputFormat = iota
	// WholeSplitInput yields exactly one record per split: the key is
	// "file:offset", the value the split's raw bytes. Used for binary
	// scientific data (image frames, volume slabs).
	WholeSplitInput
)

// Config describes one job.
type Config struct {
	Name        string
	Inputs      []string // dfs paths
	OutputDir   string   // dfs prefix; reducers write OutputDir/part-NNNNN
	Mapper      Mapper
	Reducer     Reducer // nil = identity (sorted map output passes through)
	Combiner    Reducer // optional, runs over each map task's output
	NumReducers int     // default 1
	MapOnly     bool    // skip shuffle/reduce; write part-m files (NumReduceTasks=0)
	Format      InputFormat

	// ShuffleMemory bounds the intermediate pairs a map task holds in
	// memory. When the accumulated key+value bytes (plus per-record
	// overhead) reach the budget, the task sorts, combines and spills
	// the run as a segment file into the DFS; reduce tasks merge the
	// spilled runs back with streaming readers. <= 0 means unbounded
	// (the pure in-memory shuffle); note that facility.RunJob treats 0
	// as "inherit the facility default" — pass a negative value there
	// to force the in-memory shuffle explicitly. Output bytes are
	// identical either way for jobs whose combiner (if any) is
	// associative — Hadoop's combiner contract.
	ShuffleMemory units.Bytes

	SlotsPerNode int  // concurrent tasks per node; default 2 (Hadoop default)
	Locality     bool // prefer scheduling map tasks onto replica holders

	Speculative     bool    // back up slow tasks once a phase has no fresh work left
	StragglerFactor float64 // speculation threshold multiplier; default 1.5

	// MaxAttempts is each task's error budget: the attempts that may
	// fail before the job does (default 4, Hadoop's). An attempt lost
	// with its worker is re-queued without being charged.
	MaxAttempts int

	// TaskDelay, when non-nil, injects per-(node, task) wall-clock delay
	// at the start of a worker's map attempt. It exists for straggler
	// and failure experiments; production jobs leave it nil.
	TaskDelay func(node string, task int) time.Duration

	// Test seams for a worker's reduce attempts (numbered from 1), set
	// only from package tests. reduceHook observes one starting on a
	// node and returns a callback invoked when the attempt finishes
	// (nil to skip). reduceWriter wraps the attempt's DFS output writer,
	// the injection point for induced write failures.
	reduceHook   func(part, attempt int, node string) func()
	reduceWriter func(part, attempt int, node string, w io.Writer) io.Writer
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.NumReducers <= 0 {
		out.NumReducers = 1
	}
	if out.SlotsPerNode <= 0 {
		out.SlotsPerNode = 2
	}
	if out.StragglerFactor <= 0 {
		out.StragglerFactor = 1.5
	}
	if out.MaxAttempts <= 0 {
		out.MaxAttempts = 4
	}
	return out
}

// Counters are the job's observable metrics. The master folds each
// committed attempt's deltas into them under its lock.
type Counters struct {
	MapTasks           int64
	ReduceTasks        int64
	InputRecords       int64
	MapOutputRecords   int64
	CombineInput       int64
	CombineOutput      int64
	ReduceGroups       int64
	OutputRecords      int64
	LocalTasks         int64 // map tasks scheduled on a replica holder
	RemoteTasks        int64
	SpecLaunched       int64 // speculative attempts started
	SpecWon            int64 // tasks whose speculative attempt committed first
	Retries            int64 // attempts re-run after errors (map and reduce)
	ShuffleBytes       int64 // intermediate volume fed to reducers
	RemoteShuffleBytes int64 // segment bytes fetched from worker shuffle servers
	SpillRuns          int64 // sorted runs map tasks spilled because ShuffleMemory filled
	SpillBytes         int64 // bytes of those runs (a task's final run is its output, not a spill)
	MergeStreams       int64 // run streams opened by shuffle merges
}

// Result is what a finished job reports.
type Result struct {
	Counters    Counters
	Duration    time.Duration
	OutputFiles []string
}

// fnv1a is the 32-bit FNV-1a hash of key. hash % NumReducers is the
// key's partition — Hadoop's HashPartitioner contract — and the same
// hash keys the map collector's intern tables.
func fnv1a(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return h
}
