package service

import (
	"bytes"
	"net/http"
	"testing"

	"mcd/internal/control"
	"mcd/internal/pipeline"
	"mcd/internal/resultcache"
	"mcd/internal/sim"
)

// opaque hides every method of the controller it wraps but the two of
// pipeline.Controller, CacheKey included, so a spec carrying it has no
// content address.
type opaque struct{ pipeline.Controller }

func init() {
	control.Register(control.Definition{
		Name: "t-opaque",
		Doc:  "attack-decay behind a controller with no content address (test only)",
		Build: func(r control.Run, p control.Params) (sim.Spec, error) {
			res, err := control.Resolve("attack-decay", nil)
			if err != nil {
				return sim.Spec{}, err
			}
			spec, err := res.Spec(r)
			spec.Controller = opaque{spec.Controller}
			return spec, err
		},
	})
}

// TestOpaqueRunsComputeUncached pins the store rule for runs with no
// content address: a synchronous and a streamed POST /v1/runs both
// succeed against a manager with a store, serve exactly the bytes of a
// direct simulation, and leave the store untouched.
func TestOpaqueRunsComputeUncached(t *testing.T) {
	m, srv := newServer(t, Options{})
	req := small
	req.Config = "t-opaque"
	spec, err := req.Spec()
	if err != nil {
		t.Fatal(err)
	}
	want, err := resultcache.EncodeResult(sim.Run(spec))
	if err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, srv.URL+"/v1/runs", req)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synchronous run: status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("synchronous body differs from sim.Run:\n got %s\nwant %s", body, want)
	}

	resp = postJSON(t, srv.URL+"/v1/runs", streamPayload(map[string]any{"config": "t-opaque"}))
	stream := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streamed run: status %d: %s", resp.StatusCode, stream)
	}
	if _, terminal := decodeFrames(t, stream); terminal.Type != "result" ||
		!bytes.Equal(terminal.Result, bytes.TrimSuffix(want, []byte("\n"))) {
		t.Errorf("streamed terminal frame differs from sim.Run: %+v", terminal)
	}

	if st := m.opts.Cache.Stats(); st.Entries != 0 || st.Misses != 0 {
		t.Errorf("an opaque run reached the store: %+v", st)
	}
}
