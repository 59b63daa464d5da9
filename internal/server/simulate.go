package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"

	"github.com/cyclecover/cyclecover/internal/cache"
	"github.com/cyclecover/cyclecover/internal/survive"
)

// MaxSweepK bounds the failure multiplicity the service sweeps. Each
// scenario costs O(demands·k) work, and the structured failure model the
// design targets is small simultaneous failure sets; bigger k belongs in
// an offline study with the library API.
const MaxSweepK = 6

// MaxSweepSample bounds the sampled scenario set a request may demand.
const MaxSweepSample = 8192

// DefaultSweepSample is the /simulate sample size when the request does
// not name one — smaller than the library default because a service
// answer should be interactive.
const DefaultSweepSample = 512

// MaxSweepScenarios caps the scenarios one /simulate request evaluates,
// whatever k and n it asked for. The cap truncates the deterministic
// scenario sequence (the response reports complete=false), bounding
// worst-case handler work the way MaxRingSize bounds construction.
const MaxSweepScenarios = 1 << 15

// simulateResponse is the JSON shape of a successful /simulate: the
// identity of the plan that was swept plus the aggregated sweep report.
type simulateResponse struct {
	Signature   string              `json:"signature"`
	N           int                 `json:"n"`
	Demand      string              `json:"demand"`
	Strategy    string              `json:"strategy,omitempty"` // non-default only
	Subnets     int                 `json:"subnets"`
	Wavelengths int                 `json:"wavelengths"`
	CacheHit    bool                `json:"cacheHit"` // plan served from cache
	Sweep       survive.SweepResult `json:"sweep"`
}

// parseSweepOptions validates the sweep parameters of a /simulate
// request. Absent k selects 1; absent sample selects DefaultSweepSample.
// A sweep that enumerates its space ignores sample and reports seed 0,
// so identical sweeps answer alike whatever sample/seed the caller sent.
func parseSweepOptions(r *http.Request, links int) (survive.SweepOptions, error) {
	opts := survive.SweepOptions{
		K:            1,
		Sample:       DefaultSweepSample,
		MaxScenarios: MaxSweepScenarios,
	}
	if kStr := r.FormValue("k"); kStr != "" {
		k, err := strconv.Atoi(kStr)
		if err != nil {
			return opts, fmt.Errorf("bad k %q: %v", kStr, err)
		}
		if k < 1 || k > MaxSweepK || k > links {
			return opts, fmt.Errorf("k = %d outside [1, %d] (service sweeps at most %d simultaneous failures)",
				k, min(MaxSweepK, links), MaxSweepK)
		}
		opts.K = k
	}
	if sStr := r.FormValue("sample"); sStr != "" {
		s, err := strconv.Atoi(sStr)
		if err != nil {
			return opts, fmt.Errorf("bad sample %q: %v", sStr, err)
		}
		if s < 1 || s > MaxSweepSample {
			return opts, fmt.Errorf("sample = %d outside [1, %d]", s, MaxSweepSample)
		}
		opts.Sample = s
	}
	if seedStr := r.FormValue("seed"); seedStr != "" {
		seed, err := strconv.ParseInt(seedStr, 10, 64)
		if err != nil {
			return opts, fmt.Errorf("bad seed %q: %v", seedStr, err)
		}
		opts.Seed = seed
	}
	return opts, nil
}

// simulated bundles what one /simulate pool job computes.
type simulated struct {
	resp simulateResponse
	hit  bool
}

// handleSimulate serves GET/POST
// /simulate?n=<int>[&demand=<spec>][&strategy=<name>][&k=<int>][&sample=<int>][&seed=<int64>].
//
// The instance is planned through the same worker pool and covering
// cache as /plan (the strategy, when given, is keyed into the plan's
// cache signature), then the planned network is swept with k-failure
// scenarios — plan once, sweep many: repeated simulations of one
// signature under different k/sample/seed reuse the cached plan. Each
// request runs its own sweep; only the plan is shared. With a
// configured plan timeout an expired deadline answers 504 with a
// structured body, and the sweep (or the underlying construction) is
// cancelled once no request wants it, exactly like /plan.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	n, err := formN(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	strategy := r.FormValue("strategy")
	in, err := parseInstance(n, r.FormValue("demand"), strategy)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if in.IsGeneral() {
		// Failure simulation drills the WDM layer; a general host has no
		// ring links or wavelengths to fail.
		writeError(w, http.StatusBadRequest,
			"simulation requires a ring instance: %q is general-topology", in.Name)
		return
	}
	sweepOpts, err := parseSweepOptions(r, n)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	ctx, cancel := s.planContext(r)
	defer cancel()
	opts := cache.Options{Strategy: strategy}
	planSig := cache.Signature(in, opts)
	v, err := s.pool.Submit(ctx, "", func(jctx context.Context) (any, error) {
		nw, hit, err := s.plans.NetworkKeyedCtx(jctx, planSig, in, opts)
		if err != nil {
			return nil, err
		}
		sweep, err := survive.NewSimulator(nw).SweepCtx(jctx, sweepOpts)
		if err != nil {
			return nil, err
		}
		return simulated{
			resp: simulateResponse{
				Signature:   planSig,
				N:           n,
				Demand:      in.Name,
				Strategy:    strategy,
				Subnets:     len(nw.Subnets),
				Wavelengths: nw.Wavelengths(),
				Sweep:       sweep,
			},
			hit: hit,
		}, nil
	})
	if err != nil {
		s.writeJobError(w, jobStatus(ctx, err), fmt.Errorf("simulate failed: %w", err))
		return
	}
	sm := v.(simulated)
	sm.resp.CacheHit = sm.hit
	if sm.hit {
		w.Header().Set("X-Cache", "HIT")
	} else {
		w.Header().Set("X-Cache", "MISS")
	}
	writeJSON(w, http.StatusOK, sm.resp)
}
