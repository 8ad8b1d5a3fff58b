package serve

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"arachnet/internal/core"
	"arachnet/internal/registry"
)

// cs1Base returns the restricted CS1 catalog used as the tenants'
// shared template: small enough that two similar queries trigger a
// curator promotion.
func cs1Base(t testing.TB) *registry.Registry {
	t.Helper()
	sub, err := core.BuiltinRegistry().Subset(core.CS1RegistryNames()...)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

func hasComposite(names []string) bool {
	for _, n := range names {
		if strings.HasPrefix(n, "composite.") {
			return true
		}
	}
	return false
}

func stepCapabilities(rep askSummary) []string {
	out := make([]string, len(rep.Steps))
	for i, st := range rep.Steps {
		out[i] = st.Capability
	}
	return out
}

// fullReport is the part of a "full": true /v1/ask body these tests
// read: the chosen plan, which names composites where the served steps
// name the primitives they expand into, and the promotions.
type fullReport struct {
	Design struct {
		Chosen struct {
			Steps []struct {
				Capability string `json:"capability"`
			} `json:"steps"`
		}
	} `json:"design"`
	Promotions []struct {
		Capability struct {
			Name string `json:"name"`
		}
	} `json:"promotions"`
}

// planAs asks as tenant for the full report and returns its plan's
// capabilities and the names of the composites the ask promoted.
func planAs(t testing.TB, ts string, tenant, query string) (plan, promoted []string) {
	t.Helper()
	resp := postJSON(t, ts+"/v1/ask", map[string]any{"query": query, "full": true}, tenantHeader, tenant)
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		t.Fatalf("ask as %s: status %d", tenant, resp.StatusCode)
	}
	var rep fullReport
	decodeBody(t, resp, &rep)
	for _, st := range rep.Design.Chosen.Steps {
		plan = append(plan, st.Capability)
	}
	for _, p := range rep.Promotions {
		promoted = append(promoted, p.Capability.Name)
	}
	return plan, promoted
}

func askAs(t testing.TB, ts string, tenant, query string) askSummary {
	t.Helper()
	resp := postJSON(t, ts+"/v1/ask", map[string]any{"query": query}, tenantHeader, tenant)
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		t.Fatalf("ask as %s: status %d", tenant, resp.StatusCode)
	}
	var rep askSummary
	decodeBody(t, resp, &rep)
	return rep
}

func TestTenantPromotionIsolation(t *testing.T) {
	srv, ts := startServer(t, Config{
		Env:          testEnv(t),
		BaseRegistry: cs1Base(t),
		Tenants:      []TenantConfig{{Name: "alice"}, {Name: "bob"}},
	})

	// Two similar queries give alice's curator pattern support 2: a
	// composite is promoted into alice's registry view only.
	askAs(t, ts.URL, "alice", queryCS1)
	rep := askAs(t, ts.URL, "alice", querySM4)
	if len(srv.Tenant("alice").System().Promotions()) == 0 {
		t.Fatalf("no promotion in alice after two similar runs (steps %v)", stepCapabilities(rep))
	}
	if n := len(srv.Tenant("bob").System().Promotions()); n != 0 {
		t.Fatalf("bob inherited %d promotions", n)
	}

	// Alice's third run reuses her composite; bob's identical query
	// must plan against the unevolved base view.
	alicePlan, _ := planAs(t, ts.URL, "alice", queryAAE)
	if !hasComposite(alicePlan) {
		t.Errorf("alice's plan ignores her composite: %v", alicePlan)
	}
	bobPlan, _ := planAs(t, ts.URL, "bob", queryAAE)
	if hasComposite(bobPlan) {
		t.Errorf("alice's promotion leaked into bob's plan: %v", bobPlan)
	}

	// And again through bob's plan cache: the cached plan is bob's own.
	bobPlan2, bobPromoted := planAs(t, ts.URL, "bob", queryAAE)
	if hasComposite(bobPlan2) {
		t.Errorf("composite appeared in bob's cached plan: %v", bobPlan2)
	}
	for _, name := range bobPromoted {
		t.Errorf("bob's report names promotion %q", name)
	}

	// The registries really are distinct generations of distinct views.
	aliceReg := srv.Tenant("alice").System().Registry()
	bobReg := srv.Tenant("bob").System().Registry()
	if aliceReg.Size() <= bobReg.Size() {
		t.Errorf("alice registry %d caps, bob %d — promotion missing", aliceReg.Size(), bobReg.Size())
	}
	for _, c := range bobReg.All() {
		if strings.HasPrefix(c.Name, "composite.") {
			t.Errorf("bob's registry contains %s", c.Name)
		}
	}
}

// TestTenantIsolationUnderConcurrency is the -race acceptance check:
// one tenant promotes composites while another streams jobs, and the
// streaming tenant must never observe a cross-tenant plan, step or
// promotion.
func TestTenantIsolationUnderConcurrency(t *testing.T) {
	srv, ts := startServer(t, Config{
		Env:          testEnv(t),
		BaseRegistry: cs1Base(t),
		Tenants:      []TenantConfig{{Name: "alice"}, {Name: "bob"}},
	})

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // alice: promote, then keep serving off the evolved view
		defer wg.Done()
		for _, q := range []string{queryCS1, querySM4, queryAAE, queryCS1} {
			askAs(t, ts.URL, "alice", q)
		}
	}()
	go func() { // bob: stream jobs concurrently and inspect every frame
		defer wg.Done()
		for i := 0; i < 3; i++ {
			resp := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"query": queryAAE}, tenantHeader, "bob")
			if resp.StatusCode != http.StatusAccepted {
				resp.Body.Close()
				t.Errorf("bob submit %d: status %d", i, resp.StatusCode)
				return
			}
			var sub core.JobSummary
			decodeBody(t, resp, &sub)
			stream, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d/events", ts.URL, sub.ID))
			if err != nil {
				t.Error(err)
				return
			}
			frames := readSSE(t, stream, func(f sseFrame) bool { return f.Event == "done" })
			stream.Body.Close()
			for _, f := range frames {
				if f.Event == "curation_promoted" {
					t.Errorf("bob's stream carried a promotion event: %s", f.Raw)
				}
				if strings.Contains(f.Raw, `"composite.`) {
					t.Errorf("bob's stream mentions a composite: %s", f.Raw)
				}
			}
		}
	}()
	wg.Wait()

	if n := len(srv.Tenant("bob").System().Promotions()); n != 0 {
		t.Errorf("bob ended up with %d promotions", n)
	}
	if len(srv.Tenant("alice").System().Promotions()) == 0 {
		t.Errorf("alice never promoted — the race test exercised nothing")
	}
}
