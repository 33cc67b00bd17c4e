package studysvc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	searchseizure "repro"
	"repro/internal/telemetry"
)

func newTestServer(t *testing.T, budget, maxActive int) (*Manager, *httptest.Server, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.New()
	m, err := NewManager(Options{
		BaseDir: t.TempDir(), Budget: budget, MaxActive: maxActive, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(srv.Close)
	return m, srv, reg
}

func decodeErr(t *testing.T, resp *http.Response) apiError {
	t.Helper()
	defer resp.Body.Close()
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error body is not the envelope: %v", err)
	}
	return env.Error
}

// TestLaunchValidation400s is the typed-rejection contract: every bad
// field comes back as a 400 with a stable machine-readable code at a named
// field, and garbage that isn't a spec at all gets its own code.
func TestLaunchValidation400s(t *testing.T) {
	_, srv, _ := newTestServer(t, 1, 1)
	cases := []struct {
		name      string
		body      string
		wantCode  string
		wantField string // field+code of the first field error, for invalid_spec
		fieldCode string
	}{
		{"negative seed", `{"seed": -4}`, ErrCodeInvalidSpec, "seed", "negative"},
		{"unknown fault profile", `{"faults": "volcanic"}`, ErrCodeInvalidSpec, "faults", "unknown_profile"},
		{"negative days", `{"days": -1}`, ErrCodeInvalidSpec, "days", "negative"},
		{"unknown preset", `{"preset": "galactic"}`, ErrCodeInvalidSpec, "preset", "unknown_preset"},
		{"negative scale", `{"scale": -1.5}`, ErrCodeInvalidSpec, "scale", "out_of_range"},
		{"not json", `{"seed": `, ErrCodeBadJSON, "", ""},
		{"unknown field", `{"sed": 1}`, ErrCodeBadJSON, "", ""},
		{"wrong type", `{"seed": "one"}`, ErrCodeBadJSON, "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/v1/studies", "application/json",
				strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			apiErr := decodeErr(t, resp)
			if apiErr.Code != tc.wantCode {
				t.Fatalf("code %q, want %q", apiErr.Code, tc.wantCode)
			}
			if tc.wantField == "" {
				return
			}
			if len(apiErr.Fields) == 0 {
				t.Fatal("invalid_spec carried no field errors")
			}
			if f := apiErr.Fields[0]; f.Field != tc.wantField || f.Code != tc.fieldCode {
				t.Fatalf("field error {%s %s}, want {%s %s}",
					f.Field, f.Code, tc.wantField, tc.fieldCode)
			}
		})
	}
}

// TestHTTPStudyLifecycle drives the full happy path over the wire:
// launch, stream events, poll status, list experiments, fetch a table.
func TestHTTPStudyLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m, srv, reg := newTestServer(t, 4, 2)

	spec := tinySpec(1)
	spec.Days = 3
	raw, _ := json.Marshal(spec)
	resp, err := http.Post(srv.URL+"/v1/studies", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("launch status %d, want 201", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ID == "" || st.Days != 3 {
		t.Fatalf("launch status %+v", st)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/studies/"+st.ID {
		t.Fatalf("Location %q", loc)
	}

	// Stream NDJSON events until the stream closes at the terminal state.
	eresp, err := http.Get(srv.URL + "/v1/studies/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := eresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content-type %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(eresp.Body)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	eresp.Body.Close()
	days, sawComplete := 0, false
	for _, e := range events {
		if e.Type == "day" {
			days++
		}
		if e.Type == "state" && e.State == StateComplete {
			sawComplete = true
		}
	}
	if days != 3 || !sawComplete {
		t.Fatalf("stream carried %d day events (complete=%v): %+v", days, sawComplete, events)
	}

	// Status now reports the finished run and its fingerprint.
	gresp, err := http.Get(srv.URL + "/v1/studies/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(gresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if st.State != StateComplete || st.NextDay != 3 || st.DayFingerprint == "" {
		t.Fatalf("final status %+v", st)
	}

	// The listing shows the same study.
	lresp, err := http.Get(srv.URL + "/v1/studies")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Studies []Status `json:"studies"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(listing.Studies) != 1 || listing.Studies[0].ID != st.ID {
		t.Fatalf("listing %+v", listing)
	}

	// Experiment registry and one computed table.
	xresp, err := http.Get(srv.URL + "/v1/studies/" + st.ID + "/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var exps struct {
		Experiments []struct{ ID, Title string } `json:"experiments"`
	}
	if err := json.NewDecoder(xresp.Body).Decode(&exps); err != nil {
		t.Fatal(err)
	}
	xresp.Body.Close()
	if len(exps.Experiments) == 0 {
		t.Fatal("no experiments listed")
	}
	tresp, err := http.Get(srv.URL + "/v1/studies/" + st.ID + "/experiments/table1")
	if err != nil {
		t.Fatal(err)
	}
	var tbl struct {
		ID    string `json:"id"`
		Title string `json:"title"`
		Text  string `json:"text"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&tbl); err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if tbl.ID != "table1" || tbl.Text == "" {
		t.Fatalf("table %+v", tbl)
	}

	// The instrument layer recorded every route it served.
	snap := reg.Snapshot()
	for _, c := range []string{"api_req_launch_total", "api_req_events_total",
		"api_req_get_total", "api_req_list_total", "api_req_experiment_total"} {
		if snap.Counters[c] == 0 {
			t.Errorf("counter %s never incremented", c)
		}
	}
	if snap.Histograms["api_req_get_us"].Count == 0 {
		t.Error("no get latency recorded")
	}
	_ = m
}

// TestHTTPCancelAndConflict: DELETE cancels at a day boundary (202), a
// running study's experiments answer 409 not_finished, unknown ids 404.
func TestHTTPCancelAndConflict(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m, srv, _ := newTestServer(t, 2, 1)
	h, err := m.Launch(tinySpec(3))
	if err != nil {
		t.Fatal(err)
	}
	waitForDay(t, h, 1)

	// Mid-run, the dataset is off limits.
	resp, err := http.Get(srv.URL + "/v1/studies/" + h.ID + "/experiments/table1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mid-run experiment status %d, want 409", resp.StatusCode)
	}
	if e := decodeErr(t, resp); e.Code != ErrCodeNotFinished {
		t.Fatalf("code %q, want %q", e.Code, ErrCodeNotFinished)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/studies/"+h.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("delete status %d, want 202", dresp.StatusCode)
	}
	dresp.Body.Close()
	waitDone(t, h)
	if h.State() != StateCancelled {
		t.Fatalf("state %s, want cancelled", h.State())
	}

	// A cancelled study's partial dataset is finalized: experiments work.
	presp, err := http.Get(srv.URL + "/v1/studies/" + h.ID + "/experiments/table1")
	if err != nil {
		t.Fatal(err)
	}
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel experiment status %d, want 200", presp.StatusCode)
	}
	presp.Body.Close()

	// Unknown experiment and unknown study are typed 404s.
	u404, err := http.Get(srv.URL + "/v1/studies/" + h.ID + "/experiments/table99")
	if err != nil {
		t.Fatal(err)
	}
	if u404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown experiment status %d, want 404", u404.StatusCode)
	}
	if e := decodeErr(t, u404); e.Code != ErrCodeUnknownExp {
		t.Fatalf("code %q, want %q", e.Code, ErrCodeUnknownExp)
	}
	s404, err := http.Get(srv.URL + "/v1/studies/s-999999")
	if err != nil {
		t.Fatal(err)
	}
	if s404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown study status %d, want 404", s404.StatusCode)
	}
	if e := decodeErr(t, s404); e.Code != ErrCodeNotFound {
		t.Fatalf("code %q, want %q", e.Code, ErrCodeNotFound)
	}
}

// TestHTTPWebAndDomains: the study's simulated web is reachable through
// the API under its own fault plan, and the domains endpoint enumerates
// real fetchable pages.
func TestHTTPWebAndDomains(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m, srv, reg := newTestServer(t, 2, 1)
	spec := tinySpec(1)
	spec.Days = 1
	h, err := m.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, h)

	dresp, err := http.Get(srv.URL + "/v1/studies/" + h.ID + "/domains?limit=5")
	if err != nil {
		t.Fatal(err)
	}
	var doms struct {
		Domains []string `json:"domains"`
	}
	if err := json.NewDecoder(dresp.Body).Decode(&doms); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if len(doms.Domains) == 0 || len(doms.Domains) > 5 {
		t.Fatalf("domains %v", doms.Domains)
	}

	url := fmt.Sprintf("%s/v1/studies/%s/web/?simhost=%s&u=/", srv.URL, h.ID, doms.Domains[0])
	wresp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	wresp.Body.Close()
	if wresp.StatusCode >= 500 {
		t.Fatalf("faults-off web served %d", wresp.StatusCode)
	}
	if reg.Snapshot().Counters["api_req_serp_total"] == 0 {
		t.Error("serp route not instrumented")
	}
}

// TestEventsSSEFraming: Accept: text/event-stream switches framing.
func TestEventsSSEFraming(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m, srv, _ := newTestServer(t, 2, 1)
	spec := tinySpec(1)
	spec.Days = 1
	h, err := m.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, h)

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/studies/"+h.ID+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	lines := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "data: ") {
			t.Fatalf("SSE line without data prefix: %q", line)
		}
		var e Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
			t.Fatalf("bad SSE payload: %v", err)
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("SSE stream carried no events")
	}

	// ?from resumes mid-log.
	all, _ := h.EventsSince(0)
	fresp, err := http.Get(srv.URL + "/v1/studies/" + h.ID + "/events?from=" +
		fmt.Sprint(len(all)-1))
	if err != nil {
		t.Fatal(err)
	}
	defer fresp.Body.Close()
	fsc := bufio.NewScanner(fresp.Body)
	rest := 0
	for fsc.Scan() {
		rest++
	}
	if rest != 1 {
		t.Fatalf("from=%d returned %d events, want 1", len(all)-1, rest)
	}
}

// TestCatchAll404Envelope pins the fallthrough route: an unknown /v1 path
// is instrumented like every real route and rejects with the structured
// envelope, not net/http's plain-text 404.
func TestCatchAll404Envelope(t *testing.T) {
	_, srv, reg := newTestServer(t, 1, 1)
	resp, err := http.Get(srv.URL + "/v1/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type %q, want application/json", ct)
	}
	apiErr := decodeErr(t, resp)
	if apiErr.Code != ErrCodeNotFound {
		t.Fatalf("code %q, want %q", apiErr.Code, ErrCodeNotFound)
	}
	if apiErr.Message == "" {
		t.Fatal("envelope carried no message")
	}
	snap := reg.Snapshot()
	if snap.Counters["api_req_other_total"] == 0 {
		t.Fatal("catch-all requests are not counted under api_req_other_total")
	}
}

// TestRoutesAnswerWithDeclaredShapes holds every handler to its row of the
// route table: one real request per route, and every JSON value in the
// body — one document, or each line of an NDJSON stream — must decode,
// unknown fields disallowed, into one of the row's declared response
// types, or into errorEnvelope when the status is not 2xx. A handler
// cannot put an undeclared shape on the wire. The simulated web's HTML is
// the one body that is not JSON.
func TestRoutesAnswerWithDeclaredShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m := newTestManager(t, 2, 1)
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(srv.Close)
	spec := tinySpec(1)
	spec.Days = 1
	h, err := m.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, h)
	launch, _ := json.Marshal(spec)
	fill := strings.NewReplacer("{id}", h.ID, "{expID}", searchseizure.Experiments()[0].ID)

	for _, rt := range m.routes() {
		method, path, ok := strings.Cut(rt.pattern, " ")
		if !ok {
			method, path = http.MethodGet, rt.pattern
		}
		path = fill.Replace(path)
		switch {
		case path == "/v1/":
			path += "no/such/route"
		case strings.HasSuffix(path, "/web/"):
			path += "?simhost=" + h.study.World.Web.DomainNames()[0] + "&u=/"
		}
		req, err := http.NewRequest(method, srv.URL+path, bytes.NewReader(launch))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(resp.Header.Get("Content-Type"), "json") {
			if rt.resp != nil {
				t.Errorf("%s: %s body, want JSON", rt.pattern, resp.Header.Get("Content-Type"))
			}
			continue
		}
		ok2xx := resp.StatusCode/100 == 2
		switch {
		case ok2xx && rt.resp == nil:
			t.Errorf("%s answered %d with JSON but declares no response type", rt.pattern, resp.StatusCode)
			continue
		case !ok2xx && rt.resp != nil:
			t.Errorf("%s answered %d, so its declared types went unchecked: %s", rt.pattern, resp.StatusCode, body)
		}
		declared := rt.resp
		if !ok2xx {
			declared = []any{errorEnvelope{}}
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		values := 0
		for {
			var raw json.RawMessage
			if err := dec.Decode(&raw); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("%s: body is not JSON: %v", rt.pattern, err)
			}
			values++
			if !decodesAsOneOf(raw, declared) {
				t.Errorf("%s: value %.300s matches none of its declared types %T", rt.pattern, raw, declared)
			}
		}
		if values == 0 {
			t.Errorf("%s: empty JSON body", rt.pattern)
		}
	}
}

// decodesAsOneOf reports whether raw decodes as one of the types of vs.
func decodesAsOneOf(raw []byte, vs []any) bool {
	for _, v := range vs {
		if decodesAs(raw, v) {
			return true
		}
	}
	return false
}

// decodesAs reports whether raw decodes into v's type with unknown fields
// disallowed. A type with its own MarshalJSON is held to the keys its
// marshaler writes for the zero value — the shape the contract pins for
// it.
func decodesAs(raw []byte, v any) bool {
	if m, ok := v.(json.Marshaler); ok {
		zero, err := m.MarshalJSON()
		var want, got map[string]any
		if err != nil || json.Unmarshal(zero, &want) != nil || json.Unmarshal(raw, &got) != nil {
			return false
		}
		for k := range got {
			if _, ok := want[k]; !ok {
				return false
			}
		}
		return true
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(reflect.New(reflect.TypeOf(v)).Interface()) == nil
}
