package metadata

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"

	"repro/internal/units"
)

// CreateSpec describes one dataset for CreateBatch. Tags listed here
// are applied atomically with the creation, inside the same
// shard-lock round.
type CreateSpec struct {
	Project  string
	Path     string
	Size     units.Bytes
	Checksum string
	Basic    map[string]string
	Tags     []string
}

// CreateResult is one CreateBatch outcome, aligned with the input
// spec slice.
type CreateResult struct {
	Dataset Dataset
	Err     error
}

// CreateBatch registers many datasets in one pass. Results are
// per-item — a duplicate path (against the store or within the batch)
// fails only that item. Events (Created, then Tagged per spec tag) are
// published per dataset in commit order.
//
// The paths are claimed first, each under its path shard's lock alone;
// the creations are then one commit, which locks each touched dataset
// shard once. No mutator ever holds a dataset-shard and a path-shard
// lock together — captureShard, which does, relies on that.
// A registration also acknowledges the notes staged on its path (the
// home copy's Valid note, StageReplica): their log is waited for in the
// same parallel round, one fsync per touched log, and fails it too.
func (s *Store) CreateBatch(specs []CreateSpec) []CreateResult {
	results := make([]CreateResult, len(specs))
	recs := make([]walRecord, 0, len(specs))
	at := make([]int, 0, len(specs)) // recs[k] registers specs[at[k]]
	for i, sp := range specs {
		id, err := s.claimPath(sp.Path, "")
		if err != nil {
			results[i].Err = err
			continue
		}
		// One create record per dataset, its spec tags folded in: apply
		// adds them in this order and leaves the record holding the
		// dataset it produced.
		recs = append(recs, walRecord{Op: opCreate, Seq: s.seq.Load(), Dataset: &Dataset{
			ID:        id,
			Project:   sp.Project,
			Path:      sp.Path,
			Size:      sp.Size,
			Checksum:  sp.Checksum,
			Basic:     maps.Clone(sp.Basic),
			Tags:      append([]string(nil), sp.Tags...),
			CreatedAt: s.now(),
			Version:   1 + len(sp.Tags),
		}})
		at = append(at, i)
	}
	errs := s.commit(recs, s.bus.hasSubscribers(), true)
	for k, i := range at {
		if errs != nil && errs[k] != nil {
			results[i].Err = errs[k]
			continue
		}
		results[i].Dataset = *recs[k].Dataset
	}
	return results
}

// claimPath registers path → id, minting the ID when id is empty. The
// claim is what makes duplicate detection race-free without a global
// lock; it is never journaled (see rebuildPaths).
func (s *Store) claimPath(path, id string) (string, error) {
	ps := s.pathShardFor(path)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if _, dup := ps.byPath[path]; dup {
		return "", fmt.Errorf("%w: %q", ErrDuplicate, path)
	}
	if id == "" {
		id = fmt.Sprintf("ds-%06d", s.seq.Add(1))
	}
	ps.byPath[path] = id
	return id, nil
}

// commitRun is one lock round of a commit: the records recs[order[lo:hi]]
// share a shard and a lock kind; with lo == hi it only waits (awaitLog).
type commitRun struct {
	wi     uint32
	lo, hi int
	lsn    uint64  // highest LSN to wait for; 0 when none
	evs    []Event // what the round's records publish, in commit order
	err    error   // a WAL failure: fails the whole round
}

// commit is the one write path: every mutation, single or batched,
// live or imported, is a record that goes through here. It groups the
// records by shard; per shard it takes the lock the records need,
// applies each record, journals it if it changed anything and stages
// its events, and unlocks; with wait it then waits for all the shards'
// logs at once (and a create's path's: see CreateBatch) and, per shard
// in commit order, publishes. With observed false the events are not
// built at all (no subscriber, or Import).
//
// It returns nil when every record committed, else one error per
// record: what apply refused (ErrNotFound), or a WAL failure.
func (s *Store) commit(recs []walRecord, observed, wait bool) (errs []error) {
	fail := func(i int, err error) {
		if errs == nil {
			errs = make([]error, len(recs))
		}
		errs[i] = err
	}
	// Stable order by shard: one lock round per touched shard and lock
	// kind, records of one shard in the order given. A single record —
	// Tag, a note, a Create — is its own order and allocates nothing here.
	var one [1]int
	order := one[:min(len(recs), 1)]
	if len(recs) > 1 {
		order = make([]int, len(recs))
		shard := make([]uint32, len(recs))
		for i := range recs {
			order[i] = i
			shard[i], _ = s.route(&recs[i])
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(shard[a], shard[b]) })
	}

	var first [1]commitRun
	runs := first[:0]
	for lo := 0; lo < len(recs); {
		wi, onPath := s.route(&recs[order[lo]])
		run := commitRun{wi: wi, lo: lo, hi: lo + 1}
		for ; run.hi < len(recs); run.hi++ {
			if w, p := s.route(&recs[order[run.hi]]); w != wi || p != onPath {
				break
			}
		}
		lo = run.hi
		var evs *[]Event
		if observed {
			evs = &run.evs
		}
		mu := &s.shards[wi].mu
		if onPath {
			mu = &s.pathShards[wi].mu
		}
		mu.Lock()
		for _, i := range order[run.lo:run.hi] {
			rec := &recs[i]
			changed, err := s.apply(wi, rec, evs)
			if err != nil {
				fail(i, err)
			}
			if !changed || s.wal == nil {
				continue
			}
			// Staged under the lock, so LSN order is apply order.
			if run.lsn, run.err = s.wal.shards[wi].stage(*rec); run.err != nil {
				break
			}
		}
		s.stage(run.evs...)
		mu.Unlock()
		runs = append(runs, run)
	}
	if wait && s.wal != nil {
		for i := range recs {
			if d := recs[i].Dataset; d != nil { // a create
				runs = s.awaitLog(runs, fnv32a(d.Path)&s.mask, len(recs))
			}
		}
		s.journalWaitAll(runs)
	}
	for _, run := range runs {
		for _, i := range order[run.lo:run.hi] { // a create fails with the log of its path's notes
			if d := recs[i].Dataset; d != nil && run.err == nil && s.wal != nil {
				wi := fnv32a(d.Path) & s.mask
				if k := slices.IndexFunc(runs, func(r commitRun) bool { return r.wi == wi && r.err != nil }); k >= 0 {
					run.err = runs[k].err
				}
			}
		}
		if run.err != nil {
			for _, i := range order[run.lo:run.hi] {
				fail(i, run.err)
			}
			continue
		}
		s.publish(run.evs...)
	}
	return errs
}

// awaitLog makes runs wait for all that is staged in log wi: its round
// in runs waits that far, or one holding none of the n records is added.
func (s *Store) awaitLog(runs []commitRun, wi uint32, n int) []commitRun {
	lsn := s.wal.shards[wi].undurable()
	k := slices.IndexFunc(runs, func(r commitRun) bool { return r.wi == wi })
	switch {
	case lsn == 0:
	case k >= 0:
		runs[k].lsn = max(runs[k].lsn, lsn)
	default:
		runs = append(runs, commitRun{wi: wi, lo: n, hi: n, lsn: lsn})
	}
	return runs
}

// commitOne commits a single record for a live mutator.
func (s *Store) commitOne(rec walRecord) error {
	if errs := s.commit([]walRecord{rec}, s.bus.hasSubscribers(), true); errs != nil {
		return errs[0]
	}
	return nil
}

// route names the shard a record mutates and which of its two locks
// guards that state: notes live in the path shard their path hashes
// to, everything else in the dataset shard its ID hashes to — and both
// journal to that shard's log.
func (s *Store) route(rec *walRecord) (wi uint32, onPath bool) {
	switch {
	case rec.Op == opPlacement || rec.Op == opReplica:
		return fnv32a(rec.Path) & s.mask, true
	case rec.Dataset != nil:
		return fnv32a(rec.Dataset.ID) & s.mask, false
	}
	return fnv32a(rec.ID) & s.mask, false
}

// journalWaitAll makes every round's staged records durable, the
// rounds' fsyncs in parallel, and returns their failures joined.
func (s *Store) journalWaitAll(runs []commitRun) (err error) {
	if s.wal == nil {
		return nil
	}
	if len(runs) == 1 { // a single record starts no goroutine
		s.journalWait(&runs[0])
		return runs[0].err
	}
	// On a copy: commit's own rounds then stay on its stack.
	waits := slices.Clone(runs)
	var wg sync.WaitGroup
	for k := range waits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.journalWait(&waits[k])
		}()
	}
	wg.Wait()
	for k := range runs {
		runs[k].err = waits[k].err
		err = errors.Join(err, runs[k].err)
	}
	return err
}
