package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/api"
)

// Handler builds the service's HTTP mux:
//
//	POST   /v1/campaigns               submit a sweep campaign
//	GET    /v1/campaigns               list campaigns
//	GET    /v1/campaigns/{id}          inspect state and progress
//	DELETE /v1/campaigns/{id}          cancel and forget
//	GET    /v1/campaigns/{id}/results  NDJSON result stream (?from=N)
//	GET    /v1/strategies              strategy registry
//	GET    /healthz                    liveness and build info
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleInfo)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/campaigns/{id}/results", s.handleResults)
	mux.HandleFunc("GET /v1/strategies", s.handleStrategies)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// writeJSON sends one newline-terminated JSON body with the given
// status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := api.EncodeJSON(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, api.Error{Error: err.Error()})
}

// maxSpecBytes bounds the body of a campaign submission; a larger one is
// refused with 413. A spec is a few hundred bytes of JSON plus its sweep
// axes, so 1 MiB leaves room for grids of tens of thousands of points.
const maxSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := api.DecodeCampaignSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("server: campaign spec larger than %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	id, err := s.Submit(spec)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, api.SubmitResponse{ID: id})
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		var bad *BadSpecError
		if errors.As(err, &bad) {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	info, err := s.Info(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := s.Cancel(r.PathValue("id")); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleResults streams the campaign's point results as NDJSON: one
// api.StreamFrame per line, flushed as each point lands, closed by an
// end frame carrying the terminal state. ?from=N skips the first N
// point frames, so a client that lost its connection resumes from the
// count it already has.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("server: bad from offset %q", q))
			return
		}
		from = n
	}
	// Probe existence before committing the streaming header.
	if _, err := s.Info(id); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	err := s.Stream(r.Context(), id, from, func(frame api.StreamFrame) bool {
		b, err := api.EncodeJSON(frame)
		if err != nil {
			return false
		}
		if _, err := w.Write(b); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	})
	// Headers are already out; a late error can only end the stream.
	_ = err
}

func (s *Server) handleStrategies(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.ListStrategies())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Health())
}
