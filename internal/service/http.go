package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// Handler exposes a Manager as a JSON HTTP API:
//
//	POST   /api/campaigns                submit a Spec, returns the Status
//	GET    /api/campaigns                list all campaign Statuses
//	GET    /api/campaigns/{id}           one campaign's Status
//	POST   /api/campaigns/{id}/pause     pause at the next sync boundary (checkpoints)
//	POST   /api/campaigns/{id}/resume    resume a paused or stored campaign
//	                                     (optional body {"duration_ns": N} extends the budget)
//	POST   /api/campaigns/{id}/checkpoint  force a checkpoint now
//	DELETE /api/campaigns/{id}           stop, forget and remove from the store
//	GET    /api/campaigns/{id}/events    the event feed as JSON lines
//	        ?since=N   start from sequence number N (default 0)
//	        ?type=T    only events of type T (state | coverage | crash)
//	        ?follow=1  keep streaming until the campaign reaches a
//	                   terminal state (server-sent JSON lines)
//
// Errors are {"error": "..."} with a 4xx/5xx status. A request body over
// maxSpecBytes is refused with 413.
func Handler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/campaigns", func(w http.ResponseWriter, r *http.Request) {
		spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
		if err != nil {
			badBody(w, "spec", err)
			return
		}
		st, err := m.Submit(spec)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusCreated, st)
	})
	mux.HandleFunc("GET /api/campaigns", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.List())
	})
	mux.HandleFunc("GET /api/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.CampaignStatus(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("POST /api/campaigns/{id}/pause", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Pause(r.PathValue("id"))
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("POST /api/campaigns/{id}/resume", func(w http.ResponseWriter, r *http.Request) {
		var body budget
		if r.ContentLength != 0 {
			if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes)).Decode(&body); err != nil {
				badBody(w, "body", err)
				return
			}
		}
		st, err := m.Resume(r.PathValue("id"), body.Duration)
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("POST /api/campaigns/{id}/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.CheckpointNow(r.PathValue("id"))
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("DELETE /api/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := m.Delete(r.PathValue("id")); err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /api/campaigns/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		serveEvents(m, w, r)
	})
	return mux
}

// serveEvents streams a campaign's event feed as one JSON object per
// line. Without follow it dumps the backlog and returns; with follow it
// keeps the connection open, flushing new events as slices complete,
// until the campaign reaches a terminal state or the client goes away.
func serveEvents(m *Manager, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	q := r.URL.Query()
	since := 0
	if s := q.Get("since"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad since: %w", err))
			return
		}
		since = n
	}
	typ := q.Get("type")
	follow := q.Get("follow") == "1" || q.Get("follow") == "true"

	events, wake, terminal, err := m.Events(id, since)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	for {
		for _, e := range events {
			since = e.Seq + 1
			if typ != "" && e.Type != typ {
				continue
			}
			if err := enc.Encode(e); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if !follow || terminal {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
		events, wake, terminal, err = m.Events(id, since)
		if err != nil {
			return // campaign deleted mid-stream
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// badBody answers a request whose body did not decode: 413 when it ran
// past maxSpecBytes, 400 otherwise.
func badBody(w http.ResponseWriter, what string, err error) {
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	httpError(w, code, fmt.Errorf("bad %s: %w", what, err))
}

// statusFor maps manager errors onto HTTP statuses: unknown campaigns are
// 404, everything else is a 409 state conflict.
func statusFor(err error) int {
	if errors.Is(err, ErrNoCampaign) {
		return http.StatusNotFound
	}
	return http.StatusConflict
}
