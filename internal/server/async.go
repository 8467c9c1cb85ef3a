package server

import (
	"net/http"
	"strconv"

	"crowdplanner/internal/core"
	"crowdplanner/internal/routing"
	"crowdplanner/internal/worker"
)

// Async endpoints implement the paper's client protocol: the server
// publishes tasks, the assigned workers' clients poll for open questions
// and submit answers, and the task resolves when the early-stop component
// is confident.
//
//	POST /v1/recommend/async          — resolve via TR or publish a task
//	GET  /v1/tasks/{id}               — task state (and result once closed)
//	POST /v1/tasks/{id}/answer        — submit one worker's answer
//	POST /v1/tasks/{id}/expire        — force-close on deadline
//	GET  /v1/workers/{id}/tasks       — open questions for a worker
func (s *Server) registerAsync() {
	s.handle("POST /v1/recommend/async", s.handleRecommendAsync)
	s.handle("GET /v1/tasks/{id}", s.handleTaskState)
	s.handle("POST /v1/tasks/{id}/answer", s.handleTaskAnswer)
	s.handle("POST /v1/tasks/{id}/expire", s.handleTaskExpire)
	s.handle("GET /v1/workers/{id}/tasks", s.handleWorkerTasks)
}

// AsyncRecommendResponse is the POST /v1/recommend/async reply: either a
// resolved recommendation or a published task ticket.
type AsyncRecommendResponse struct {
	Resolved *RecommendResponse `json:"resolved,omitempty"`
	Ticket   *TicketInfo        `json:"ticket,omitempty"`
}

// TicketInfo describes a published (pending) task.
type TicketInfo struct {
	TaskID          int64   `json:"task_id"`
	State           string  `json:"state"`
	CurrentQuestion *int32  `json:"current_question,omitempty"` // landmark ID
	AssignedWorkers []int32 `json:"assigned_workers"`
}

func ticketInfo(p *core.PendingTask) *TicketInfo {
	state, _ := p.Status() // synchronized: answers may be arriving concurrently
	ti := &TicketInfo{TaskID: p.ID, State: state.String()}
	if lm, ok := p.CurrentQuestion(); ok {
		v := int32(lm)
		ti.CurrentQuestion = &v
	}
	for _, r := range p.Assigned {
		ti.AssignedWorkers = append(ti.AssignedWorkers, int32(r.Worker.ID))
	}
	return ti
}

func (s *Server) recommendResponse(resp *core.Response, depart float64) *RecommendResponse {
	out := &RecommendResponse{
		Route:      resp.Route.Nodes,
		Stage:      resp.Stage.String(),
		Confidence: resp.Confidence,
		LengthM:    resp.Route.Length(s.sys.Graph()),
		TravelMin:  routing.TravelMinutes(s.sys.Graph(), resp.Route, routing.SimTime(depart)),
	}
	for _, c := range resp.Candidates {
		out.Candidates = append(out.Candidates, CandidateInfo{
			Source:  c.Source,
			Nodes:   len(c.Route.Nodes),
			LengthM: c.Route.Length(s.sys.Graph()),
			Prior:   c.Prior,
		})
	}
	return out
}

func (s *Server) handleRecommendAsync(w http.ResponseWriter, r *http.Request) {
	// Publishing a crowd task writes task-lifecycle records; with the
	// storage breaker open those would be short-circuited and the task lost
	// on restart, so async publication is refused while degraded (the
	// synchronous /v1/recommend keeps serving).
	if s.rejectIfDegraded(w, r) {
		return
	}
	var req RecommendRequest
	if !decodeBody(w, r, maxBodyBytes, &req) {
		return
	}
	creq, err := req.coreRequest()
	if err != nil {
		writeCoreErr(w, r, err)
		return
	}
	resp, ticket, err := s.sys.RecommendAsync(r.Context(), creq)
	if err != nil {
		writeCoreErr(w, r, err)
		return
	}
	out := AsyncRecommendResponse{}
	if resp != nil {
		out.Resolved = s.recommendResponse(resp, req.DepartMin)
	} else {
		out.Ticket = ticketInfo(ticket)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) taskFromPath(w http.ResponseWriter, r *http.Request) (*core.PendingTask, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, CodeBadRequest, "bad task id %q", r.PathValue("id"))
		return nil, false
	}
	p, ok := s.sys.PendingTask(id)
	if !ok {
		writeErr(w, r, http.StatusNotFound, CodeNotFound, "unknown task %d", id)
		return nil, false
	}
	return p, true
}

// TaskStateResponse is the GET /v1/tasks/{id} reply.
type TaskStateResponse struct {
	Ticket *TicketInfo        `json:"ticket"`
	Result *RecommendResponse `json:"result,omitempty"`
}

func (s *Server) handleTaskState(w http.ResponseWriter, r *http.Request) {
	p, ok := s.taskFromPath(w, r)
	if !ok {
		return
	}
	out := TaskStateResponse{Ticket: ticketInfo(p)}
	if _, result := p.Status(); result != nil {
		out.Result = s.recommendResponse(result, float64(p.Req.Depart))
	}
	writeJSON(w, http.StatusOK, out)
}

// AnswerRequest is the POST /v1/tasks/{id}/answer body.
type AnswerRequest struct {
	Worker int32 `json:"worker"`
	Yes    bool  `json:"yes"`
}

// AnswerResponse is its reply.
type AnswerResponse struct {
	State    string             `json:"state"`
	Resolved *RecommendResponse `json:"resolved,omitempty"`
}

func (s *Server) handleTaskAnswer(w http.ResponseWriter, r *http.Request) {
	if s.rejectIfDegraded(w, r) {
		return
	}
	p, ok := s.taskFromPath(w, r)
	if !ok {
		return
	}
	var req AnswerRequest
	if !decodeBody(w, r, maxBodyBytes, &req) {
		return
	}
	resp, err := s.sys.SubmitAnswer(p.ID, worker.ID(req.Worker), req.Yes)
	if err != nil {
		writeCoreErr(w, r, err)
		return
	}
	state, _ := p.Status()
	out := AnswerResponse{State: state.String()}
	if resp != nil {
		out.Resolved = s.recommendResponse(resp, float64(p.Req.Depart))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleTaskExpire(w http.ResponseWriter, r *http.Request) {
	if s.rejectIfDegraded(w, r) {
		return
	}
	p, ok := s.taskFromPath(w, r)
	if !ok {
		return
	}
	resp, err := s.sys.ExpireTask(p.ID)
	if err != nil {
		writeCoreErr(w, r, err)
		return
	}
	state, _ := p.Status()
	writeJSON(w, http.StatusOK, AnswerResponse{
		State:    state.String(),
		Resolved: s.recommendResponse(resp, float64(p.Req.Depart)),
	})
}

// WorkerTaskInfo is one open question for a worker.
type WorkerTaskInfo struct {
	TaskID   int64 `json:"task_id"`
	Landmark int32 `json:"landmark"`
}

func (s *Server) handleWorkerTasks(w http.ResponseWriter, r *http.Request) {
	// worker.ID is int32: parse in that range so an out-of-range ID is
	// rejected rather than wrapped onto another worker.
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 32)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, CodeBadRequest, "bad worker id %q", r.PathValue("id"))
		return
	}
	out := []WorkerTaskInfo{}
	for _, p := range s.sys.PendingTasks(worker.ID(id)) {
		if lm, ok := p.CurrentQuestion(); ok {
			out = append(out, WorkerTaskInfo{TaskID: p.ID, Landmark: int32(lm)})
		}
	}
	writeJSON(w, http.StatusOK, out)
}
