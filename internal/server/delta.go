package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"github.com/cyclecover/cyclecover/internal/cache"
	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/instance"
)

// maxDeltaBody bounds the /plan/delta request body; a parent signature
// plus a delta spec is a few dozen bytes, so this is pure headroom.
const maxDeltaBody = 1 << 16

// deltaRequest is the JSON body of POST /plan/delta: the parent plan's
// canonical signature (echoed by /plan as "signature") and a delta spec.
type deltaRequest struct {
	Parent string `json:"parent"`
	Delta  string `json:"delta"`
}

// deltaResponse is a full plan response for the child instance plus the
// delta provenance: which parent it replanned from, the applied delta,
// and whether the covering came from warm repair (vs cold fallback or a
// cached child).
type deltaResponse struct {
	planResponse
	Parent   string `json:"parent"`
	Delta    string `json:"delta"`
	Repaired bool   `json:"repaired"`
}

// handlePlanDelta serves POST /plan/delta: incremental replanning after a
// bounded instance change. The parent plan is fetched from the covering
// cache by signature, the delta applied to its demand, and the child
// planned by warm-starting the repair search from the parent covering —
// falling back to cold construction when repair exhausts its budget. The
// repaired plan verifies and costs no more cycles than a cold replan,
// and is admitted under the child instance's own signature, so identical
// concurrent requests — delta or cold — coalesce on the pool and the
// cache's single flight.
//
// 400 table: malformed JSON body, missing parent, missing delta, an
// unparseable delta spec, an unknown (never planned or evicted) parent
// signature, and a delta invalid against the parent's demand (endpoints
// out of range, removing an absent pair). An expired plan timeout
// answers 504 with the structured timeout body.
func (s *Server) handlePlanDelta(w http.ResponseWriter, r *http.Request) {
	s.count("/plan/delta")
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	release, retry, ok := s.adm.acquire("/plan/delta")
	if !ok {
		writeShed(w, "/plan/delta", retry)
		return
	}
	defer release()
	r.Body = http.MaxBytesReader(w, r.Body, maxDeltaBody)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "delta body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "reading delta request: %v", err)
		return
	}
	var req deltaRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad delta request: %v", err)
		return
	}
	if req.Parent == "" {
		writeError(w, http.StatusBadRequest, "missing required field parent (a plan signature, as echoed by /plan)")
		return
	}
	if req.Delta == "" {
		writeError(w, http.StatusBadRequest, "missing required field delta (add:<u>:<v>, remove:<u>:<v>, fail:<u>:<v>, or set:<u>:<v>:<m>)")
		return
	}
	d, err := instance.ParseDelta(req.Delta)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	dp, err := s.plans.ResolveDelta(req.Parent, d)
	if err != nil {
		// Unknown parents and invalid deltas are client-side input
		// problems; anything else from resolution would be a server bug.
		if errors.Is(err, cache.ErrUnknownParent) || errors.Is(err, cache.ErrBadDelta) {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// The child inherits the parent's ring but is re-checked against the
	// service limits: an embedding process may have warmed the cache with
	// plans the HTTP limits would have rejected.
	if err := checkRingSize(dp.Child.N()); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := checkDemandSize(dp.Child); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	ctx, cancel := s.planContext(r)
	defer cancel()
	// The pool signature carries the delta shape, not just the child
	// signature: a /plan job for the same child returns a different
	// payload type, so the two must never coalesce at the pool layer.
	// They still share one construction via the cache's single flight.
	sig := "delta:" + dp.ParentSig + "->" + dp.ChildSig
	v, err := s.pool.Submit(ctx, sig, func(jctx context.Context) (any, error) {
		res, coverHit, err := s.plans.CoverDeltaCtx(jctx, dp)
		if err != nil {
			return nil, err
		}
		nw, netHit, err := s.plans.NetworkCtx(jctx, dp.Child, dp.Opts)
		if err != nil {
			return nil, err
		}
		return planned{res: res, nw: nw, hit: coverHit && netHit}, nil
	})
	if err != nil {
		status := jobStatus(ctx, err)
		if status == http.StatusGatewayTimeout {
			writeJSON(w, status, timeoutBody{Error: "delta plan failed: " + err.Error(), Timeout: s.planTimeout.String()})
			return
		}
		writeError(w, status, "delta plan failed: %v", err)
		return
	}
	pl := v.(planned)

	resp := deltaResponse{
		planResponse: buildPlanResponse(dp.ChildSig, dp.Child, dp.Opts.Strategy, pl.res, pl.nw, pl.hit),
		Parent:       dp.ParentSig,
		Delta:        d.String(),
		Repaired:     pl.res.Method == construct.MethodDelta,
	}
	if resp.CacheHit {
		w.Header().Set("X-Cache", "HIT")
	} else {
		w.Header().Set("X-Cache", "MISS")
	}
	writeJSON(w, http.StatusOK, resp)
}
