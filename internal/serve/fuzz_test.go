package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sst/internal/iofault"
)

// FuzzJobSpecHTTP drives arbitrary POST /v1/jobs bodies through the real
// handler. Whatever the bytes, the answer is 202 (admitted) or a 4xx that
// names the problem — never a 5xx, a panic or a hang. Each input gets a
// fresh, never-started server on an in-memory state directory: admission
// (decode, spec validation, durable spec.json) is what is under test, and
// no admitted job ever runs.
func FuzzJobSpecHTTP(f *testing.F) {
	// The benchmark pool's bodies (serve.hot and serve.cold shapes) ...
	f.Add(`{"tenant":"bench","spec":{"kind":"dse","apps":["hpccg","lulesh","stencil","stream"],"techs":["ddr3-1333","gddr5-4000"],"widths":[1,2,4,8],"scale":"small"}}`)
	f.Add(`{"tenant":"bench","spec":{"kind":"dse","apps":["gups"],"techs":["ddr2-800"],"widths":[4],"scale":"full"}}`)
	f.Add(`{"tenant":"bench","spec":{"kind":"net","nodes":32,"steps":2,"fractions":[1,0.5,0.125]},"deadline_ms":60000}`)
	f.Add(`{"spec":{"kind":"net-power"}}`)
	// ... and malformed ones.
	f.Add(``)
	f.Add(`{`)
	f.Add(`null`)
	f.Add(`[]`)
	f.Add(`{"spec":{"kind":"nope"}}`)
	f.Add(`{"spec":{"kind":"dse","apps":[],"widths":[-1]}}`)
	f.Add(`{"spec":{"kind":"dse","apps":["stream"],"techs":["ddr3-1333"],"widths":[1],"scale":"jumbo"}}`)
	f.Add(`{"spec":{"kind":"net","nodes":-5,"steps":1e30,"fractions":[0,-1,1e308]}}`)
	f.Add(`{"tenant":"` + strings.Repeat("a", 300) + `","spec":{"kind":"dse"},"deadline_ms":-9223372036854775808}`)
	f.Add(`{"spec":{"kind":"dse"}} trailing`)
	f.Fuzz(func(t *testing.T, body string) {
		s, err := New(Config{StateDir: "state", FS: iofault.NewMemFS(0), QueueCapacity: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Drain(0)
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body))
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.Handler().ServeHTTP(rec, req)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("POST /v1/jobs hung on body %q", body)
		}
		if code := rec.Code; code != http.StatusAccepted && (code < 400 || code > 499) {
			t.Fatalf("POST /v1/jobs answered %d for body %q: %s", code, body, rec.Body.String())
		}
	})
}
