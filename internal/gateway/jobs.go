package gateway

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/adal"
	"repro/internal/mapreduce"
	"repro/internal/mrpc"
	"repro/internal/obs"
)

const (
	// JobHistory is how many finished jobs stay answerable at /v1/jobs;
	// past it the oldest is forgotten (404). Running jobs always stay.
	JobHistory = 256
	// MaxJobWait caps GET /v1/jobs/{id}?wait=: a job still running
	// after it is answered "running", and the client asks again.
	MaxJobWait = 10 * time.Second
)

// jobState tracks one submitted job; mutated only under Server.jobsMu.
type jobState struct {
	id       string
	job      string
	tenant   string
	state    string
	started  time.Time
	finished time.Time
	errMsg   string
	result   *mapreduce.Result
	done     chan struct{} // closed when state leaves JobRunning
}

func (j *jobState) status() JobStatus {
	st := JobStatus{ID: j.id, Job: j.job, Tenant: j.tenant, State: j.state, Error: j.errMsg}
	if j.state != JobRunning {
		st.DurationMS = j.finished.Sub(j.started).Milliseconds()
	}
	if j.result != nil {
		st.Counters = j.result.Counters
		st.OutputFiles = j.result.OutputFiles
	}
	return st
}

func (s *Server) submitJob(w http.ResponseWriter, r *http.Request) {
	ai := reqAuth(r)
	if s.cfg.RunSpec == nil {
		writeErr(w, http.StatusNotImplemented, "jobs_disabled", "this lsdfd has no analysis cluster")
		return
	}
	var req JobRequest
	if !s.decodeJSON(w, r, &req, nil) {
		return
	}
	if len(req.Inputs) == 0 || req.OutputDir == "" {
		writeErr(w, http.StatusBadRequest, "bad_request", "job needs inputs and output_dir")
		return
	}
	// Map and reduce functions are Go code — they cannot cross the
	// wire. What crosses it is a job *name* resolved against the
	// facility's template registry (mapreduce.Registry). Unknown
	// templates 404 before authorization: name existence is not
	// path-private.
	if s.cfg.HasJob != nil && !s.cfg.HasJob(req.Job) {
		writeErr(w, http.StatusNotFound, "unknown_job", fmt.Sprintf("no job template %q", req.Job))
		return
	}
	// Jobs run on the analysis cluster: inputs and outputs are DFS
	// paths, authorized against their /hdfs addresses so the ACL
	// grants that govern direct reads govern job access too.
	for _, in := range req.Inputs {
		if _, err := s.al.Authorize(ai.creds, "/hdfs"+in, adal.PermRead); err != nil {
			s.fail(w, err)
			return
		}
	}
	if _, err := s.al.Authorize(ai.creds, "/hdfs"+req.OutputDir, adal.PermWrite); err != nil {
		s.fail(w, err)
		return
	}

	// The request's trace ID rides the spec, so the master's job span
	// and the workers' attempt spans land in the same trace as the
	// gateway's gw.submit_job.
	run, err := s.cfg.RunSpec(mrpc.JobSpec{
		Name:        req.Job,
		Inputs:      req.Inputs,
		OutputDir:   req.OutputDir,
		NumReducers: req.NumReducers,
		Args:        req.Args,
		Trace:       obs.TraceID(r.Context()),
	}, ai.tenant.name)
	if err != nil {
		if errors.Is(err, mapreduce.ErrUnknownTemplate) {
			writeErr(w, http.StatusNotFound, "unknown_job", err.Error())
		} else {
			writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		}
		return
	}

	s.jobsMu.Lock()
	s.jobSeq++
	js := &jobState{
		id:      fmt.Sprintf("j-%06d", s.jobSeq),
		job:     req.Job,
		tenant:  ai.tenant.name,
		state:   JobRunning,
		started: time.Now(),
		done:    make(chan struct{}),
	}
	s.jobs[js.id] = js
	s.jobsMu.Unlock()

	go func() {
		res, err := run()
		s.jobsMu.Lock()
		defer s.jobsMu.Unlock()
		defer close(js.done)
		if s.finished = append(s.finished, js.id); len(s.finished) > JobHistory {
			delete(s.jobs, s.finished[0])
			s.finished = s.finished[1:]
		}
		js.finished = time.Now()
		if err != nil {
			js.state = JobFailed
			js.errMsg = err.Error()
			return
		}
		js.state = JobDone
		js.result = res
	}()
	writeJSON(w, http.StatusAccepted, JobStatus{ID: js.id, Job: js.job, Tenant: js.tenant, State: JobRunning})
}

// jobStatus answers one job's status. With ?wait=<ms> a running job
// parks the request until it finishes, the wait (capped at MaxJobWait)
// runs out, the client goes away or the server drains; the answer is
// the status as it then stands.
func (s *Server) jobStatus(w http.ResponseWriter, r *http.Request) {
	ai := reqAuth(r)
	id := r.PathValue("id")
	s.jobsMu.Lock()
	js, ok := s.jobs[id]
	s.jobsMu.Unlock()
	// Another tenant's job ID behaves like a missing one, before any
	// wait: job existence is tenant-private.
	if !ok || js.tenant != ai.tenant.name {
		writeErr(w, http.StatusNotFound, "not_found", "no job "+id)
		return
	}
	if ms, err := strconv.ParseInt(r.URL.Query().Get("wait"), 10, 64); err == nil && ms > 0 {
		// Capped before it is converted: a huge wait must not wrap negative.
		timer := time.NewTimer(time.Duration(min(ms, MaxJobWait.Milliseconds())) * time.Millisecond)
		defer timer.Stop()
		select {
		case <-js.done:
		case <-timer.C:
		case <-r.Context().Done():
		case <-s.drainCh:
		}
	}
	s.jobsMu.Lock()
	st := js.status()
	s.jobsMu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) listJobs(w http.ResponseWriter, r *http.Request) {
	ai := reqAuth(r)
	s.jobsMu.Lock()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, js := range s.jobs {
		if js.tenant == ai.tenant.name {
			out = append(out, js.status())
		}
	}
	s.jobsMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return strings.Compare(out[i].ID, out[j].ID) < 0 })
	writeJSON(w, http.StatusOK, JobsResult{Jobs: out})
}
