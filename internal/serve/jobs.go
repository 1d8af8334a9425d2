package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"vaq/internal/caldrift"
	"vaq/internal/jobs"
)

// JobRequest is the body of POST /v1/jobs: an envelope naming which
// synchronous endpoint's request shape Request carries. The request is
// validated eagerly at submission — a malformed job is a 400 at submit
// time, never an asynchronous failure discovered by polling.
type JobRequest struct {
	// Kind selects the pipeline: compile, estimate, batch, portfolio or
	// sweep.
	Kind string `json:"kind"`
	// Tenant attributes the job for quota accounting (default
	// "anonymous"; the X-Nisqd-Tenant header is used when empty).
	Tenant string `json:"tenant,omitempty"`
	// Class is the priority class: interactive, batch (default) or
	// background.
	Class string `json:"class,omitempty"`
	// Request is the body the named kind's synchronous endpoint would
	// accept, verbatim.
	Request json.RawMessage `json:"request"`
}

// DecodeJobRequest parses and validates one /v1/jobs body, including
// the embedded request (decoded with the same decoder the synchronous
// endpoint uses).
func DecodeJobRequest(data []byte, maxTrials int) (*JobRequest, error) {
	return decode[JobRequest](data, maxTrials)
}

func (r *JobRequest) check(maxTrials int) error {
	op, ok := operations[jobs.Kind(r.Kind)]
	if !ok {
		return badReqf("kind must be one of %v (got %q)", jobs.Kinds(), r.Kind)
	}
	if r.Class != "" && !jobs.ValidClass(jobs.Class(r.Class)) {
		return badReqf("class must be one of %v (got %q)", jobs.Classes(), r.Class)
	}
	if r.Tenant != "" && !caldrift.ValidDeviceName(r.Tenant) {
		return badReqf("%s", badName("tenant"))
	}
	if len(r.Request) == 0 {
		return badReqf("request body is required")
	}
	if _, err := op.decode(r.Request, maxTrials); err != nil {
		return fmt.Errorf("%s request: %w", r.Kind, err)
	}
	return nil
}

// executeJob is the in-process jobs.Backend: it runs a job through the
// same operation its synchronous endpoint uses (same decoder, plan and
// response cache), so a job's result bytes are the synchronous
// response's bytes for the same request.
func (s *Server) executeJob(ctx context.Context, w jobs.Work, progress func(string)) ([]byte, error) {
	op, ok := operations[w.Kind]
	if !ok {
		return nil, jobs.Permanent(fmt.Errorf("unhandled job kind %q", w.Kind))
	}
	p, err := s.prepare(op, w.Request, progress)
	var body []byte
	var disposition string
	if err == nil {
		body, disposition, err = s.cached(ctx, p)
	}
	if err == nil && p.partial {
		// Interrupted mid-fan-out: report the interruption instead of
		// storing a partial result; the re-run recomputes everything.
		err = ctx.Err()
	}
	if err != nil {
		return nil, classifyJobErr(ctx, err)
	}
	if disposition == "hit" {
		progress("served from response cache")
	}
	return body, nil
}

// classifyJobErr maps a pipeline failure onto the retry taxonomy:
// client-caused failures (the statuses the synchronous endpoint would
// 4xx) are permanent — re-running the same spec can only fail the same
// way — while server-side and cancellation failures stay retryable.
func classifyJobErr(ctx context.Context, err error) error {
	if cause := context.Cause(ctx); cause != nil && !errors.Is(cause, context.Canceled) {
		// Surface the manager's cancel cause (deadline, cancel, drain)
		// rather than a bare context error.
		err = cause
	}
	switch errorStatus(err) {
	case http.StatusBadRequest, http.StatusNotFound:
		return jobs.Permanent(err)
	}
	return err
}

// setRetryAfter writes a jittered Retry-After header: the shed's own
// hint (rounded up, at least 1s) plus up to 2s of per-response jitter,
// so a burst of shed clients doesn't reconverge on the same instant.
func setRetryAfter(w http.ResponseWriter, hint time.Duration) {
	secs := int(math.Ceil(hint.Seconds()))
	if secs < 1 {
		secs = 1
	}
	secs += rand.IntN(3)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	data, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeJobRequest(data, s.cfg.MaxTrials)
	if err != nil {
		writeError(w, errorStatus(err), err.Error())
		return
	}
	tenant := req.Tenant
	if tenant == "" {
		if h := r.Header.Get("X-Nisqd-Tenant"); h != "" && caldrift.ValidDeviceName(h) {
			tenant = h
		}
	}
	v, err := s.jobs.Submit(jobs.Spec{
		Tenant:  tenant,
		Class:   jobs.Class(req.Class),
		Kind:    jobs.Kind(req.Kind),
		Request: req.Request,
	})
	if err != nil {
		var se *jobs.ShedError
		if errors.As(err, &se) {
			setRetryAfter(w, se.RetryAfter)
			writeError(w, http.StatusTooManyRequests, se.Msg)
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, v)
}

type jobListResponse struct {
	Jobs []*jobs.View `json:"jobs"`
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, jobListResponse{Jobs: s.jobs.List()})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	v, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, state, ok := s.jobs.Result(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
		return
	}
	if state != jobs.StateSucceeded {
		writeError(w, http.StatusConflict,
			fmt.Sprintf("job %s is %s; a result exists only once it succeeds", id, state))
		return
	}
	// The stored bytes are written verbatim: byte-identical to the
	// synchronous endpoint's response for the same request.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, err := s.jobs.Cancel(id)
	switch {
	case errors.Is(err, jobs.ErrUnknownJob):
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
	case errors.Is(err, jobs.ErrNotCancellable):
		writeError(w, http.StatusConflict, fmt.Sprintf("job %s already %s", id, v.State))
	case err != nil:
		writeError(w, http.StatusInternalServerError, err.Error())
	default:
		writeJSON(w, http.StatusOK, v)
	}
}

// handleJobEvents streams a job's lifecycle as Server-Sent Events
// until the job reaches a terminal state or the client goes away. Not
// wrapped in instrumented — a stream's lifetime would drown the
// latency histogram.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	s.met.requests.Add(1, "/v1/jobs/{id}/events")
	id := r.PathValue("id")
	history, ch, cancel, err := s.jobs.Subscribe(id)
	if err != nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
		return
	}
	defer cancel()
	serveEvents(w, r, history, ch)
}

// serveEvents writes an event feed as Server-Sent Events: replayed
// history first, then live events until the feed closes or the client
// goes away. The headers are flushed at open, so a client sees the
// stream start even while the feed is still empty.
func serveEvents(w http.ResponseWriter, r *http.Request, history []jobs.Event, ch <-chan jobs.Event) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	write := func(ev jobs.Event) {
		data, err := json.Marshal(ev)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
		fl.Flush()
	}
	for _, ev := range history {
		write(ev)
	}
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return
			}
			write(ev)
		case <-r.Context().Done():
			return
		}
	}
}
