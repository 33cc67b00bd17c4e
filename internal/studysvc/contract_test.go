package studysvc

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/contract"
)

// apiSchemaPath is the /v1 golden, checked in at the module root.
var apiSchemaPath = filepath.Join("..", "..", "api.schema.json")

// currentAPI is the /v1 contract the route table declares: every row's
// pattern, and the shape of every request and response type plus the
// errorEnvelope every non-2xx body carries.
func currentAPI() contract.Doc {
	roots := []reflect.Type{reflect.TypeFor[errorEnvelope]()}
	var routes []string
	for _, rt := range new(Manager).routes() {
		routes = append(routes, rt.pattern)
		if rt.req != nil {
			roots = append(roots, reflect.TypeOf(rt.req))
		}
		for _, v := range rt.resp {
			roots = append(roots, reflect.TypeOf(v))
		}
	}
	sort.Strings(routes)
	pkg := reflect.TypeFor[Manager]().PkgPath()
	return contract.Doc{Routes: routes, Types: contract.Types(pkg, roots...)}
}

// apiFindings renders the drift from a pinned golden to the current
// contract. A removal or a retype breaks clients and always fails; an
// addition fails until it is re-pinned, so the golden's diff rides in the
// change that caused it.
func apiFindings(golden, current contract.Doc) []string {
	var out []string
	for _, c := range contract.Diff(golden, current) {
		if c.Kind == "added" {
			out = append(out, fmt.Sprintf("%s: not pinned in api.schema.json; re-pin with `go test ./internal/studysvc -run TestAPIContract -update`", c))
		} else {
			out = append(out, fmt.Sprintf("%s: breaking change for clients; restore it, or revise the API deliberately and re-pin with -update", c))
		}
	}
	return out
}

// TestAPIContract pins the /v1 surface to api.schema.json.
func TestAPIContract(t *testing.T) {
	current := currentAPI()
	golden, err := contract.Golden(apiSchemaPath, current)
	if err != nil {
		t.Fatalf("reading the /v1 golden: %v", err)
	}
	for _, f := range apiFindings(golden, current) {
		t.Error(f)
	}
}

// TestAPIDriftIsCaught feeds doctored goldens — yesterday's pin, from
// which today's code has drifted — through the same check and asserts
// each drift is exactly the expected findings.
func TestAPIDriftIsCaught(t *testing.T) {
	cases := []struct {
		name  string
		edit  func(*contract.Doc)
		wants []string
	}{
		{
			name: "field rename",
			edit: func(d *contract.Doc) {
				fields := d.Types["repro/internal/studysvc.apiError"]
				fields["message_legacy"] = fields["message"]
				delete(fields, "message")
			},
			wants: []string{
				`field "message_legacy" of repro/internal/studysvc.apiError removed: breaking change`,
				`field "message" of repro/internal/studysvc.apiError added: not pinned`,
			},
		},
		{
			name: "unpinned route",
			edit: func(d *contract.Doc) {
				d.Routes = slices.DeleteFunc(d.Routes, func(r string) bool { return r == "GET /v1/studies/{id}/domains" })
			},
			wants: []string{`route "GET /v1/studies/{id}/domains" added: not pinned`},
		},
		{
			name: "dropped route",
			edit: func(d *contract.Doc) {
				d.Routes = append(d.Routes, "GET /v1/studies/{id}/checkpoints")
			},
			wants: []string{`route "GET /v1/studies/{id}/checkpoints" removed: breaking change`},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := os.ReadFile(apiSchemaPath)
			if err != nil {
				t.Fatal(err)
			}
			var golden contract.Doc
			if err := json.Unmarshal(raw, &golden); err != nil {
				t.Fatal(err)
			}
			tc.edit(&golden)
			got := apiFindings(golden, currentAPI())
			if len(got) != len(tc.wants) {
				t.Fatalf("got %d findings, want %d: %q", len(got), len(tc.wants), got)
			}
			for i, want := range tc.wants {
				if !strings.HasPrefix(got[i], want) {
					t.Errorf("finding %d = %q, want prefix %q", i, got[i], want)
				}
			}
		})
	}
}
