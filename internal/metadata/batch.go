package metadata

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

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
// lock together — freeze, which does, relies on that.
// A registration also acknowledges the notes staged on its path (the
// home copy's Valid note, StageReplica): they were staged before it, so
// they are older in the one log and the batch's single wait covers
// them.
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

// commit is the one write path: every mutation, single or batched,
// live or imported, is a record that goes through here. It groups the
// records by shard; per shard it takes the lock the records need,
// applies each record, journals it if it changed anything and stages
// its events, and unlocks; with wait it then waits once for the log up
// to the last record staged and publishes, per shard in commit order.
// With observed false the events are not built at all (no subscriber,
// or Import).
//
// It returns nil when every record committed, else one error per
// record: what apply refused (ErrNotFound), or a WAL failure, which
// fails every record.
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

	var evs []Event // what the records publish, round after round
	var out *[]Event
	if observed {
		out = &evs
	}
	var lsn uint64   // the last record staged; 0 when none
	var walErr error // the log refused a record: the store is fail-stop
	for lo, hi := 0, 0; lo < len(recs) && walErr == nil; lo = hi {
		wi, onPath := s.route(&recs[order[lo]])
		for hi = lo + 1; hi < len(recs); hi++ {
			if w, p := s.route(&recs[order[hi]]); w != wi || p != onPath {
				break
			}
		}
		mu := &s.shards[wi].mu
		if onPath {
			mu = &s.pathShards[wi].mu
		}
		staged := len(evs)
		mu.Lock()
		for _, i := range order[lo:hi] {
			rec := &recs[i]
			changed, err := s.apply(rec, out)
			if err != nil {
				fail(i, err)
			}
			if !changed || s.wal == nil {
				continue
			}
			// Staged under the lock, so LSN order is apply order.
			if lsn, walErr = s.wal.stage(*rec); walErr != nil {
				break
			}
		}
		s.stage(evs[staged:]...)
		mu.Unlock()
	}
	if wait && walErr == nil {
		walErr = s.journalWait(lsn)
	}
	if walErr != nil {
		for i := range recs {
			fail(i, walErr)
		}
		return errs
	}
	s.publish(evs...)
	return errs
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
// to, everything else in the dataset shard its ID hashes to.
func (s *Store) route(rec *walRecord) (wi uint32, onPath bool) {
	switch {
	case rec.Op == opPlacement || rec.Op == opReplica:
		return fnv32a(rec.Path) & s.mask, true
	case rec.Dataset != nil:
		return fnv32a(rec.Dataset.ID) & s.mask, false
	}
	return fnv32a(rec.ID) & s.mask, false
}
