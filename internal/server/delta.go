package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
// delta provenance.
type deltaResponse struct {
	planResponse
	deltaTail
}

// deltaTail is the delta provenance: which parent the child was
// replanned from, the applied delta, and whether the covering is the
// patched parent (vs the cold plan or a cached child).
type deltaTail struct {
	Parent   string `json:"parent"`
	Delta    string `json:"delta"`
	Repaired bool   `json:"repaired"`
}

// handlePlanDelta serves POST /plan/delta: incremental replanning after a
// bounded instance change. The parent plan is fetched from the covering
// cache by signature, the delta applied to its demand, and the child
// planned by patching the parent covering (construct.DeltaRepair) — the
// cold plan answers instead when the patch is larger. The answer
// verifies and costs no more cycles than a cold replan, and is admitted
// under the child instance's own signature, so identical concurrent
// requests — delta or cold — each take a worker and share one
// construction through the cache's single flight.
//
// 400 table: malformed JSON body, missing parent, missing delta, an
// unparseable delta spec, an unknown (never planned or evicted) parent
// signature, and a delta invalid against the parent's demand (endpoints
// out of range, removing an absent pair). An expired plan timeout
// answers 504 with the structured timeout body.
func (s *Server) handlePlanDelta(w http.ResponseWriter, r *http.Request) {
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
	v, err := s.pool.Submit(ctx, "", func(jctx context.Context) (any, error) {
		res, coverHit, err := s.plans.CoverDeltaCtx(jctx, dp)
		if err != nil {
			return nil, err
		}
		nw, netHit, err := s.plans.NetworkKeyedCtx(jctx, dp.ChildSig, dp.Child, dp.Opts)
		if err != nil {
			return nil, err
		}
		return planned{res: res, nw: nw, hit: coverHit && netHit}, nil
	})
	if err != nil {
		s.writeJobError(w, jobStatus(ctx, err), fmt.Errorf("delta plan failed: %w", err))
		return
	}
	pl := v.(planned)

	resp := deltaResponse{
		planResponse: buildPlanResponse(dp.ChildSig, dp.Child, dp.Opts.Strategy, pl.res, pl.nw, pl.hit),
		deltaTail: deltaTail{
			Parent:   dp.ParentSig,
			Delta:    d.String(),
			Repaired: pl.res.Method == construct.MethodDelta,
		},
	}
	if resp.CacheHit {
		w.Header().Set("X-Cache", "HIT")
	} else {
		w.Header().Set("X-Cache", "MISS")
	}
	writePlan(w, &resp.planResponse, &resp.deltaTail)
}
