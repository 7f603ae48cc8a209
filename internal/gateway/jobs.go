package gateway

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/adal"
	"repro/internal/mapreduce"
	"repro/internal/mrpc"
	"repro/internal/obs"
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
	if !s.decodeJSON(w, r, &req) {
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
	}
	s.jobs[js.id] = js
	s.jobsMu.Unlock()

	go func() {
		res, err := run()
		s.jobsMu.Lock()
		defer s.jobsMu.Unlock()
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

func (s *Server) jobStatus(w http.ResponseWriter, r *http.Request) {
	ai := reqAuth(r)
	id := r.PathValue("id")
	s.jobsMu.Lock()
	js, ok := s.jobs[id]
	var st JobStatus
	if ok {
		st = js.status()
	}
	s.jobsMu.Unlock()
	// Another tenant's job ID behaves like a missing one: job
	// existence is tenant-private.
	if !ok || st.Tenant != ai.tenant.name {
		writeErr(w, http.StatusNotFound, "not_found", "no job "+id)
		return
	}
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
