// Package mrpc is the MapReduce control and shuffle plane: the wire
// types and HTTP/JSON plumbing that connect a job master to its
// worker runtimes. The protocol is TaskTracker-shaped (Hadoop circa
// the LSDF paper): workers register, then heartbeat; heartbeats renew
// task leases and carry new assignments and kill orders back;
// completions are acknowledged explicitly so a superseded attempt
// learns to discard its output. Reduce-side shuffle is a plain GET
// for a byte range of a spill file, served by the worker that wrote
// it (or, when that worker is gone, read straight from the DFS).
//
// The three control calls are the Control interface, and it has two
// transports: *Client carries them as JSON over HTTP/1.1 on the
// standard library to a master that Mount serves — small control
// messages where per-call overhead is dwarfed by task runtimes, and
// streamed bodies for segment and file bytes — while a master in the
// worker's own process is a Control itself and is called directly.
package mrpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
)

// Protocol endpoints, rooted under /mr/v1 (control) and /dfsproxy/v1
// (storage proxy for out-of-process workers).
const (
	PathRegister  = "/mr/v1/register"
	PathHeartbeat = "/mr/v1/heartbeat"
	PathComplete  = "/mr/v1/complete"
	PathSegment   = "/mr/v1/segment"

	PathProxyStat   = "/dfsproxy/v1/stat"
	PathProxyRead   = "/dfsproxy/v1/read"
	PathProxyCreate = "/dfsproxy/v1/create"
	PathProxyDelete = "/dfsproxy/v1/delete"
	PathProxyRename = "/dfsproxy/v1/rename"
)

// Phases of a task.
const (
	PhaseMap    = "map"
	PhaseReduce = "reduce"
)

// AttemptID names one execution attempt of one task of one job.
type AttemptID struct {
	Job     string `json:"job"`
	Phase   string `json:"phase"` // PhaseMap or PhaseReduce
	Task    int    `json:"task"`
	Attempt int    `json:"attempt"`
}

// String renders Hadoop-style attempt names for logs and errors.
func (a AttemptID) String() string {
	return fmt.Sprintf("%s/%s-%d.a%d", a.Job, a.Phase, a.Task, a.Attempt)
}

// TaskKey is the attempt's task, for indexing.
func (a AttemptID) TaskKey() TaskKey { return TaskKey{Job: a.Job, Phase: a.Phase, Task: a.Task} }

// TaskKey names one task independent of attempts.
type TaskKey struct {
	Job   string
	Phase string
	Task  int
}

// JobSpec is a job as it crosses the wire: a template name resolved
// against a server-side registry (job code is Go — it cannot be
// serialized; Hadoop streaming made the same trade) plus the
// per-submission parameters.
type JobSpec struct {
	Name          string            `json:"name"` // registry template
	Inputs        []string          `json:"inputs"`
	OutputDir     string            `json:"output_dir"`
	NumReducers   int               `json:"num_reducers,omitempty"`
	Args          map[string]string `json:"args,omitempty"`
	ShuffleMemory int64             `json:"shuffle_memory,omitempty"` // bytes; <=0 inherits master default
	Trace         string            `json:"trace,omitempty"`          // trace ID minted at the front door
}

// RegisterRequest announces a worker to the master.
type RegisterRequest struct {
	Worker string `json:"worker"` // unique worker ID
	Addr   string `json:"addr"`   // host:port of the worker's shuffle server
	Node   string `json:"node"`   // datanode identity for locality ("" = none)
	Slots  int    `json:"slots"`  // concurrent task capacity
}

// RegisterReply tells the worker its heartbeat cadence.
type RegisterReply struct {
	HeartbeatMS int64 `json:"heartbeat_ms"`
	LeaseMS     int64 `json:"lease_ms"` // miss heartbeats past this and the master presumes death
}

// Progress reports one running attempt inside a heartbeat. Fraction
// is in [0,1]; 0 means unknown (the master falls back to elapsed
// time for straggler detection).
type Progress struct {
	ID       AttemptID `json:"id"`
	Fraction float64   `json:"fraction"`
}

// HeartbeatRequest renews the worker's lease and advertises capacity.
type HeartbeatRequest struct {
	Worker  string     `json:"worker"`
	Free    int        `json:"free"` // open slots
	Running []Progress `json:"running,omitempty"`
}

// HeartbeatReply piggybacks scheduling on the heartbeat, as Hadoop's
// TaskTracker protocol did.
type HeartbeatReply struct {
	Assign []Assignment `json:"assign,omitempty"`
	Kill   []AttemptID  `json:"kill,omitempty"`
	// Unknown means the master has no record of this worker (it was
	// declared dead, or the master restarted); the worker must
	// re-register and treat its running attempts as orphaned.
	Unknown bool `json:"unknown,omitempty"`
}

// SplitRef describes a map task's input slice.
type SplitRef struct {
	File   string `json:"file"`
	Offset int64  `json:"offset"`
	Length int64  `json:"length"`
}

// SegRef locates one partition's segment inside a spill run file.
type SegRef struct {
	Off     int64 `json:"off"`
	Len     int64 `json:"len"`
	Records int   `json:"records"`
}

// RunRef is one sorted spill run: the DFS file plus per-partition
// segment geometry, annotated with the shuffle address of the worker
// that wrote it. Reducers fetch segments from Addr and fall back to
// the DFS file when the worker is gone.
type RunRef struct {
	File string   `json:"file"`
	Addr string   `json:"addr,omitempty"`
	Segs []SegRef `json:"segs"`
}

// MapOutputRef points a reduce task at one committed map task's runs.
type MapOutputRef struct {
	Task int      `json:"task"`
	Runs []RunRef `json:"runs"`
}

// Assignment is one task handed to a worker. Map assignments carry
// the split; reduce assignments carry every committed map output for
// the partition. OutFile is the attempt-scoped output name (map-only
// and reduce); the master renames the winning attempt's file into
// place, so half-written losers never shadow the real output.
type Assignment struct {
	ID         AttemptID      `json:"id"`
	Spec       JobSpec        `json:"spec"`
	ShufDir    string         `json:"shuf_dir"`
	MapOnly    bool           `json:"map_only,omitempty"`
	Split      *SplitRef      `json:"split,omitempty"`
	MapOutputs []MapOutputRef `json:"map_outputs,omitempty"`
	OutFile    string         `json:"out_file,omitempty"`
}

// TaskCounters are one attempt's metric deltas; the master folds them
// into the job's counters only when it accepts the completion, so
// duplicate and superseded attempts never double-count.
type TaskCounters struct {
	InputRecords     int64 `json:"input_records,omitempty"`
	MapOutputRecords int64 `json:"map_output_records,omitempty"`
	CombineInput     int64 `json:"combine_input,omitempty"`
	CombineOutput    int64 `json:"combine_output,omitempty"`
	ReduceGroups     int64 `json:"reduce_groups,omitempty"`
	OutputRecords    int64 `json:"output_records,omitempty"`
	ShuffleBytes     int64 `json:"shuffle_bytes,omitempty"`
	RemoteShuffle    int64 `json:"remote_shuffle,omitempty"` // segment bytes fetched over HTTP
	SpillRuns        int64 `json:"spill_runs,omitempty"`
	SpillBytes       int64 `json:"spill_bytes,omitempty"`
	MergeStreams     int64 `json:"merge_streams,omitempty"`
}

// CompleteRequest reports one finished attempt. Exactly one of the
// outcome groups is meaningful: Err for failures; Runs for map
// attempts; OutFile for reduce and map-only attempts. LostMaps lists
// map task indexes whose runs a reduce attempt could fetch neither
// from their worker nor from the DFS — the signal that re-executes
// completed maps whose output died with their worker.
type CompleteRequest struct {
	Worker string    `json:"worker"`
	ID     AttemptID `json:"id"`
	Err    string    `json:"err,omitempty"`
	// Cause is Err as a value. It cannot cross the wire; on the direct
	// transport the master wraps it, so a failed job's error still
	// answers errors.Is for the mapper's or the store's own.
	Cause    error        `json:"-"`
	Runs     []RunRef     `json:"runs,omitempty"`
	OutFile  string       `json:"out_file,omitempty"`
	LostMaps []int        `json:"lost_maps,omitempty"`
	Counters TaskCounters `json:"counters"`
	// Spans are the attempt's recorded trace spans (shuffle fetch,
	// sort, reduce); the master attaches them to the job's trace when
	// the spec carried a trace ID.
	Spans []obs.SpanData `json:"spans,omitempty"`
}

// CompleteReply acknowledges a completion. Accepted=false means the
// attempt was superseded (a sibling committed first, or the master
// had given the task up); the worker deletes the attempt's files.
type CompleteReply struct {
	Accepted bool `json:"accepted"`
}

// StatReply answers a proxy stat.
type StatReply struct {
	Size     int64 `json:"size"`
	Complete bool  `json:"complete"`
}

// Control is the worker's side of the control plane: the calls a task
// runtime makes on its master. A Heartbeat may park at the master until
// there is work, orders, or its context ends.
type Control interface {
	Register(context.Context, *RegisterRequest) (*RegisterReply, error)
	Heartbeat(context.Context, *HeartbeatRequest) (*HeartbeatReply, error)
	Complete(context.Context, *CompleteRequest) (*CompleteReply, error)
}

// Mount serves c's three calls on mux, for Clients to reach.
func Mount(mux *http.ServeMux, c Control) {
	Handle(mux, PathRegister, c.Register)
	Handle(mux, PathHeartbeat, c.Heartbeat)
	Handle(mux, PathComplete, c.Complete)
}

// Error is a structured protocol error. One returned by a handler
// crosses the wire as it is, so both transports hand the caller the
// same Code.
type Error struct {
	Code string `json:"code"`
	Msg  string `json:"msg"`
}

// CodeBadRequest marks a request the peer can never accept (an attempt
// ID that names no task): retrying it is pointless.
const CodeBadRequest = "bad_request"

func (e *Error) Error() string { return fmt.Sprintf("mrpc: %s: %s", e.Code, e.Msg) }

// ErrNotFound marks proxy lookups of absent files; it maps to and
// from dfs.ErrNotFound at the proxy boundary.
var ErrNotFound = errors.New("mrpc: not found")

// Client issues protocol calls against one peer (a master's control
// plane or a worker's shuffle server). Every call takes a context:
// cancellation and deadlines propagate into the HTTP request, so a
// hung master or shuffle peer can no longer block a worker forever.
type Client struct {
	Base string // http://host:port
	HC   *http.Client
}

// callTimeout bounds a Call whose context has no deadline of its own.
// Streaming calls that must outlive it pass a deadline or use Get/Put.
const callTimeout = 30 * time.Second

// NewClient dials base with a shared transport. Timeouts are per-call,
// not per-client, so one slow streaming read doesn't dictate the
// control-plane bound.
func NewClient(base string) *Client {
	return &Client{Base: base, HC: &http.Client{}}
}

// withDeadline applies the default call timeout when ctx has none.
func withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, callTimeout)
}

// Call posts req as JSON to path and decodes the JSON reply into
// reply. Non-2xx responses decode the Error envelope. The trace ID
// carried by ctx (if any) rides the X-LSDF-Trace header.
func (c *Client) Call(ctx context.Context, path string, req, reply any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	ctx, cancel := withDeadline(ctx)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if id := obs.TraceID(ctx); id != "" {
		hreq.Header.Set(obs.TraceHeader, id)
	}
	resp, err := c.HC.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if reply == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(reply)
}

// Register, Heartbeat and Complete make *Client a Control over HTTP.
func (c *Client) Register(ctx context.Context, req *RegisterRequest) (*RegisterReply, error) {
	return call[RegisterReply](ctx, c, PathRegister, req)
}

func (c *Client) Heartbeat(ctx context.Context, req *HeartbeatRequest) (*HeartbeatReply, error) {
	return call[HeartbeatReply](ctx, c, PathHeartbeat, req)
}

func (c *Client) Complete(ctx context.Context, req *CompleteRequest) (*CompleteReply, error) {
	return call[CompleteReply](ctx, c, PathComplete, req)
}

func call[Rep any](ctx context.Context, c *Client, path string, req any) (*Rep, error) {
	rep := new(Rep)
	if err := c.Call(ctx, path, req, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

func decodeError(resp *http.Response) error {
	var pe Error
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&pe); err == nil && pe.Code != "" {
		if pe.Code == "not_found" {
			return fmt.Errorf("%w: %s", ErrNotFound, pe.Msg)
		}
		return &pe
	}
	return fmt.Errorf("mrpc: HTTP %d", resp.StatusCode)
}

// Get issues a streaming GET (segment fetch, proxy read) and returns
// the body. The caller must Close it. No default deadline is applied
// — a deadline would kill the stream mid-read — but ctx cancellation
// (and any deadline the caller chose) propagates, so sizing the
// timeout to the transfer is the caller's job.
func (c *Client) Get(ctx context.Context, pathAndQuery string) (io.ReadCloser, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+pathAndQuery, nil)
	if err != nil {
		return nil, err
	}
	if id := obs.TraceID(ctx); id != "" {
		hreq.Header.Set(obs.TraceHeader, id)
	}
	resp, err := c.HC.Do(hreq)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	return resp.Body, nil
}

// Put streams body to pathAndQuery (proxy create). Like Get, no
// default deadline — uploads run as long as the data does — but
// cancellation propagates.
func (c *Client) Put(ctx context.Context, pathAndQuery string, body io.Reader) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPut, c.Base+pathAndQuery, body)
	if err != nil {
		return err
	}
	if id := obs.TraceID(ctx); id != "" {
		hreq.Header.Set(obs.TraceHeader, id)
	}
	resp, err := c.HC.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// Handle registers a JSON POST endpoint on mux. fn gets the request's
// context, which ends when the caller hangs up: a handler that parks
// (the master's heartbeat poll) selects on it.
func Handle[Req, Rep any](mux *http.ServeMux, path string, fn func(context.Context, *Req) (*Rep, error)) {
	mux.HandleFunc("POST "+path, func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&req); err != nil {
			WriteError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
			return
		}
		// net/http watches the connection for a hang-up only once the
		// body has been read to its end.
		_, _ = io.Copy(io.Discard, r.Body)
		rep, err := fn(r.Context(), &req)
		if err != nil {
			status, pe := wireError(err)
			WriteError(w, status, pe.Code, pe.Msg)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(rep)
	})
}

// wireError is a handler's error as it crosses the wire: an *Error as
// it is, anything else under "not_found" or "internal".
func wireError(err error) (status int, pe *Error) {
	switch {
	case errors.As(err, &pe):
	case errors.Is(err, ErrNotFound):
		pe = &Error{Code: "not_found", Msg: err.Error()}
	default:
		pe = &Error{Code: "internal", Msg: err.Error()}
	}
	if pe.Code == CodeBadRequest {
		return http.StatusBadRequest, pe
	}
	return http.StatusInternalServerError, pe
}

// WriteError emits the protocol error envelope.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(Error{Code: code, Msg: msg})
}

// Server is an HTTP listener bound to an ephemeral (or given) port,
// with the shutdown plumbing every control-plane endpoint here needs.
type Server struct {
	ln  net.Listener
	srv *http.Server

	// fresh holds the connections accepted but never used — a peer's
	// transport dials ahead of need. http.Server.Shutdown waits on one
	// as if a request were in flight, so Close drops them first.
	mu      sync.Mutex
	fresh   map[net.Conn]struct{}
	closing bool
}

// Serve starts handler on addr ("" = 127.0.0.1:0) and returns once
// the listener is bound, so Addr is immediately usable.
func Serve(addr string, handler http.Handler) (*Server, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: handler}, fresh: make(map[net.Conn]struct{})}
	s.srv.ConnState = func(c net.Conn, st http.ConnState) {
		s.mu.Lock()
		defer s.mu.Unlock()
		switch {
		case st != http.StateNew:
			delete(s.fresh, c)
		case s.closing:
			c.Close()
		default:
			s.fresh[c] = struct{}{}
		}
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound host:port.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's http base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close stops the listener and in-flight handlers.
func (s *Server) Close() {
	_ = s.shutdown(2 * time.Second)
	_ = s.srv.Close()
}

// shutdown drops the never-used connections, then drains the rest for
// at most timeout; it returns what http.Server.Shutdown returned.
func (s *Server) shutdown(timeout time.Duration) error {
	s.mu.Lock()
	s.closing = true
	for c := range s.fresh {
		c.Close()
	}
	s.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return s.srv.Shutdown(ctx)
}
