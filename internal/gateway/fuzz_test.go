package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
)

// FuzzRegisterRequest: POST /v1/functions is where outside bytes reach two
// parsers — the bearer token and the FunctionSpec JSON — and then the
// platform. Whatever the Authorization value and body, ServeHTTP must not
// panic and must answer 201 with the name it registered under the token's
// tenant, or a 4xx envelope whose code and status are a row of the wire
// table. Seeded from CI's gateway-smoke script and the validation tests.
func FuzzRegisterRequest(f *testing.F) {
	const token, tenant = "ci-token", "ci"
	for _, seed := range []struct{ auth, body string }{
		{"Bearer ci-token", `{"name":"hello","handler":"echo","memory_mb":128}`},
		{"Bearer ci-token", `{"name":"w","handler":"work","env":{"ms":"5","output":"ok"},"timeout_ms":50,"keepalive_ms":60000,"cold_start_ms":1,"warm_start_ms":1,"max_concurrency":4,"prewarm":2,"max_retries":-1}`},
		{"Bearer   ci-token  ", `{"name":"f","handler":"fail"}`},
		{"Bearer ci-token", `{"name":"victim/f","handler":"echo"}`},
		{"Bearer ci-token", `{"name":"f","handler":"echo","prewarm":1000000000}`},
		{"Bearer ci-token", `{"name":"f","handler":"cobol"}`},
		{"Bearer ci-token", `{"name": "f", `},
		{"Bearer ci-token", ``},
		{"Bearer other", `{"name":"hello","handler":"echo"}`},
		{"bearer ci-token", `{"name":"hello","handler":"echo"}`},
		{"Basic Y2k6Y2k=", `{}`},
		{"", `null`},
	} {
		f.Add(seed.auth, []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, auth string, body []byte) {
		gw := New(core.New(core.Options{}), Config{Tokens: map[string]string{token: tenant}, Executor: NewInProc()})
		req := httptest.NewRequest(http.MethodPost, "/v1/functions", bytes.NewReader(body))
		req.Header["Authorization"] = []string{auth}
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)

		if rec.Code == http.StatusCreated {
			var spec FunctionSpec
			var got map[string]string
			if err := json.Unmarshal(body, &spec); err != nil {
				t.Fatalf("201 for a body that is not a spec: %v", err)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || got["name"] != spec.Name || got["tenant"] != tenant {
				t.Fatalf("201 body %q (err %v), want name %q under tenant %q", rec.Body, err, spec.Name, tenant)
			}
			if fns := gw.p.Tenant(tenant).Functions(); len(fns) != 1 || fns[0].Name != spec.Name {
				t.Fatalf("201 but the tenant's functions are %+v", fns)
			}
			return
		}
		var env Envelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("status %d with a body that is no envelope: %q (%v)", rec.Code, rec.Body, err)
		}
		row, ok := codeTable[env.Error.Code]
		if !ok || rec.Code < 400 || rec.Code > 499 || row.Status != rec.Code {
			t.Fatalf("status %d code %q: not a 4xx row of the wire table", rec.Code, env.Error.Code)
		}
		if fns := gw.p.Tenant(tenant).Functions(); len(fns) != 0 {
			t.Fatalf("status %d but the tenant has functions %+v", rec.Code, fns)
		}
	})
}
