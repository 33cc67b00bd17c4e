package studysvc

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	searchseizure "repro"
	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// Error codes carried in the {"error":{...}} envelope, stable for clients.
const (
	ErrCodeBadJSON       = "bad_json"
	ErrCodeInvalidSpec   = "invalid_spec"
	ErrCodeNotFound      = "not_found"
	ErrCodeNotFinished   = "not_finished"
	ErrCodeUnknownExp    = "unknown_experiment"
	ErrCodeShutdown      = "shutting_down"
	ErrCodeBodyTooLarge  = "body_too_large"
	ErrCodeInternalError = "internal"
)

// maxSpecBytes bounds a POST /v1/studies body; a launch spec is tiny.
const maxSpecBytes = 1 << 16

// apiError is the wire form of one API failure.
type apiError struct {
	Code    string                     `json:"code"`
	Message string                     `json:"message"`
	Fields  []searchseizure.FieldError `json:"fields,omitempty"`
}

// errorEnvelope wraps every non-2xx body: {"error": {code, message, fields}}.
type errorEnvelope struct {
	Error apiError `json:"error"`
}

// LatencyBuckets are the API latency histogram bounds in microseconds:
// fine enough under 1ms to resolve cached JSON serving, wide enough past
// 100ms to catch day-boundary stalls.
func LatencyBuckets() []float64 {
	return []float64{50, 100, 250, 500, 1000, 2500, 5000, 10000,
		25000, 50000, 100000, 250000, 1e6, 2.5e6, 5e6}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	//sslint:ignore errflow the status line is already on the wire; an encode failure means the client hung up
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string, fields []searchseizure.FieldError) {
	writeJSON(w, status, errorEnvelope{Error: apiError{Code: code, Message: msg, Fields: fields}})
}

// instrument wraps a route with the service registry's per-route counter,
// latency histogram and the shared in-flight gauge. Metric names follow
// api_req_<route>_total / api_req_<route>_us so the loadtest and benchjson
// can find them without new machinery.
func instrument(reg *telemetry.Registry, route string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reg.Gauge("api_inflight").Add(1)
		h.ServeHTTP(w, r)
		reg.Gauge("api_inflight").Add(-1)
		reg.Counter("api_req_" + route + "_total").Inc()
		reg.Histogram("api_req_"+route+"_us", LatencyBuckets()).
			Observe(float64(time.Since(start).Microseconds()))
	})
}

// route is one row of the /v1 table: the mux pattern, the instrument
// name (api_req_<name>_*), the handler, and the JSON the route reads and
// writes. req is the request body's type (nil: no body); resp lists every
// 2xx body shape (an NDJSON stream carries a sequence of them). Every
// non-2xx body is an errorEnvelope. The table is the contract:
// api.schema.json pins exactly these patterns and the shapes of these
// types, and the tests hold every handler to its row.
type route struct {
	pattern string
	name    string
	handler http.Handler
	req     any
	resp    []any
}

// The list routes' response shapes. They are aliases, not named types:
// the wire shape is an anonymous struct, which api.schema.json keys by its
// field names ("studysvc.{studies}").
type (
	studyList = struct {
		Studies []Status `json:"studies"`
	}
	experimentList = struct {
		Experiments []expInfo `json:"experiments"`
	}
	domainList = struct {
		Domains []string `json:"domains"`
	}
)

type expInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// routes is the /v1 surface:
//
//	POST   /v1/studies                          launch (validated spec)
//	GET    /v1/studies                          list (includes recovered)
//	GET    /v1/studies/{id}                     status + resume cursor
//	DELETE /v1/studies/{id}                     graceful cancel at day boundary
//	GET    /v1/studies/{id}/events              NDJSON (or SSE) progress stream
//	GET    /v1/studies/{id}/experiments         experiment registry
//	GET    /v1/studies/{id}/experiments/{expID} one table as {id,title,text}
//	GET    /v1/studies/{id}/domains             simulated domains (for drivers)
//	       /v1/studies/{id}/web/                the study's simulated web,
//	                                            behind its own fault plan
//	       /v1/                                 catch-all: a JSON 404
//
// Everything except the web route is outside fault injection: a 5xx from
// /v1 is always a real failure.
func (m *Manager) routes() []route {
	return []route{
		{"POST /v1/studies", "launch", http.HandlerFunc(m.handleLaunch), searchseizure.StudySpec{}, []any{Status{}}},
		{"GET /v1/studies", "list", http.HandlerFunc(m.handleList), nil, []any{studyList{}}},
		{"GET /v1/studies/{id}", "get", m.withStudy(m.handleGet), nil, []any{Status{}}},
		{"DELETE /v1/studies/{id}", "delete", http.HandlerFunc(m.handleDelete), nil, []any{Status{}}},
		{"GET /v1/studies/{id}/events", "events", m.withStudy(m.handleEvents), nil, []any{Event{}}},
		{"GET /v1/studies/{id}/experiments", "experiments", m.withStudy(m.handleExperimentList), nil, []any{experimentList{}}},
		{"GET /v1/studies/{id}/experiments/{expID}", "experiment", m.withStudy(m.handleExperiment), nil, []any{export.Table{}}},
		{"GET /v1/studies/{id}/domains", "domains", m.withStudy(m.handleDomains), nil, []any{domainList{}}},
		{"/v1/studies/{id}/web/", "serp", http.HandlerFunc(m.handleWeb), nil, nil},
		{"/v1/", "other", http.HandlerFunc(handleNotFound), nil, nil},
	}
}

// Handler returns the versioned study API: every row of routes,
// instrumented under its name.
func (m *Manager) Handler() http.Handler {
	reg := m.opts.Telemetry
	mux := http.NewServeMux()
	for _, rt := range m.routes() {
		mux.Handle(rt.pattern, instrument(reg, rt.name, rt.handler))
	}
	return mux
}

func handleNotFound(w http.ResponseWriter, _ *http.Request) {
	writeError(w, http.StatusNotFound, ErrCodeNotFound, "no such route", nil)
}

// withStudy resolves {id} or answers a typed 404.
func (m *Manager) withStudy(fn func(http.ResponseWriter, *http.Request, *Handle)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h, ok := m.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, ErrCodeNotFound,
				fmt.Sprintf("no study %q", r.PathValue("id")), nil)
			return
		}
		fn(w, r, h)
	})
}

func (m *Manager) handleLaunch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadJSON, "reading body: "+err.Error(), nil)
		return
	}
	if len(body) > maxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge, ErrCodeBodyTooLarge,
			fmt.Sprintf("spec exceeds %d bytes", maxSpecBytes), nil)
		return
	}
	var spec searchseizure.StudySpec
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadJSON, err.Error(), nil)
		return
	}
	h, err := m.Launch(spec)
	if err != nil {
		var verr *searchseizure.ValidationError
		switch {
		case errors.As(err, &verr):
			writeError(w, http.StatusBadRequest, ErrCodeInvalidSpec,
				"invalid study spec", verr.Fields)
		case strings.Contains(err.Error(), "shut down"):
			writeError(w, http.StatusServiceUnavailable, ErrCodeShutdown, err.Error(), nil)
		default:
			writeError(w, http.StatusInternalServerError, ErrCodeInternalError, err.Error(), nil)
		}
		return
	}
	w.Header().Set("Location", "/v1/studies/"+h.ID)
	writeJSON(w, http.StatusCreated, h.Status())
}

func (m *Manager) handleList(w http.ResponseWriter, _ *http.Request) {
	handles := m.List()
	out := studyList{Studies: make([]Status, 0, len(handles))}
	for _, h := range handles {
		out.Studies = append(out.Studies, h.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (m *Manager) handleGet(w http.ResponseWriter, _ *http.Request, h *Handle) {
	writeJSON(w, http.StatusOK, h.Status())
}

func (m *Manager) handleDelete(w http.ResponseWriter, r *http.Request) {
	h, ok := m.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrCodeNotFound,
			fmt.Sprintf("no study %q", r.PathValue("id")), nil)
		return
	}
	writeJSON(w, http.StatusAccepted, h.Status())
}

// handleEvents streams the study's progress log. Default framing is NDJSON
// (one Event per line); an Accept: text/event-stream request gets SSE
// ("data: <event-json>\n\n"). ?from=N skips already-seen events. The
// stream ends when the study is terminal and fully delivered, or when the
// client goes away.
func (m *Manager) handleEvents(w http.ResponseWriter, r *http.Request, h *Handle) {
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	next := 0
	if from := r.URL.Query().Get("from"); from != "" {
		if n, err := strconv.Atoi(from); err == nil && n > 0 {
			next = n
		}
	}
	enc := json.NewEncoder(w)
	for {
		evs, notify := h.EventsSince(next)
		for _, e := range evs {
			// A write failure means the client hung up mid-stream; the
			// request context will cancel momentarily, so just stop here.
			if sse {
				if _, err := io.WriteString(w, "data: "); err != nil {
					return
				}
			}
			if err := enc.Encode(e); err != nil {
				return
			}
			if sse {
				if _, err := io.WriteString(w, "\n"); err != nil {
					return
				}
			}
		}
		next += len(evs)
		if flusher != nil {
			flusher.Flush()
		}
		if len(evs) == 0 && terminal(h.State()) {
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		case <-h.done:
			// Terminal: loop once more to drain trailing events.
		}
	}
}

func (m *Manager) handleExperimentList(w http.ResponseWriter, _ *http.Request, h *Handle) {
	var out experimentList
	for _, e := range searchseizure.Experiments() {
		out.Experiments = append(out.Experiments, expInfo{ID: e.ID, Title: e.Title})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleExperiment computes one table over the study's finalized dataset.
// Cancelled studies work too — their partial dataset is finalized at the
// day boundary where they stopped — but a still-running study answers 409:
// its dataset is mid-mutation and must not be read.
func (m *Manager) handleExperiment(w http.ResponseWriter, r *http.Request, h *Handle) {
	expID := r.PathValue("expID")
	e, ok := experiments.ByID(expID)
	if !ok {
		writeError(w, http.StatusNotFound, ErrCodeUnknownExp,
			fmt.Sprintf("no experiment %q (see /v1/studies/%s/experiments)", expID, h.ID), nil)
		return
	}
	data, ok := h.Dataset()
	if !ok {
		writeError(w, http.StatusConflict, ErrCodeNotFinished,
			fmt.Sprintf("study %s is %s; experiments need a finished run", h.ID, h.State()), nil)
		return
	}
	tbl := export.Table{ID: e.ID, Title: e.Title, Result: e.Run(data)}
	writeJSON(w, http.StatusOK, tbl)
}

// handleDomains lists the study's registered simulated domains so external
// drivers (the loadtest) can fetch real pages through the web route.
func (m *Manager) handleDomains(w http.ResponseWriter, r *http.Request, h *Handle) {
	limit := 0
	if q := r.URL.Query().Get("limit"); q != "" {
		if n, err := strconv.Atoi(q); err == nil {
			limit = n
		}
	}
	names := h.study.World.Web.DomainNames()
	if limit > 0 && limit < len(names) {
		names = names[:limit]
	}
	writeJSON(w, http.StatusOK, domainList{Domains: names})
}

// handleWeb serves the study's simulated web under its own fault plan —
// the only fault-injected surface of the API. Injected 502s carry the
// "(injected)" body marker, so load drivers can tell them from real
// failures.
func (m *Manager) handleWeb(w http.ResponseWriter, r *http.Request) {
	h, ok := m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrCodeNotFound,
			fmt.Sprintf("no study %q", r.PathValue("id")), nil)
		return
	}
	var web http.Handler = h.study.World.Web
	web = http.TimeoutHandler(web, 5*time.Second, "simulated web: render timeout")
	web = faults.Handler(h.study.World.Faults, web)
	http.StripPrefix("/v1/studies/"+h.ID+"/web", web).ServeHTTP(w, r)
}
