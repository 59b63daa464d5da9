package cache

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/ring"
)

// Snapshot persistence: a Plans cache can export its λK_n covering
// entries and warm-start from them in a later process. A snapshot is a
// hint, not trusted state — every entry is rebuilt through the normal
// cycle constructors and re-verified by the independent verifier before
// it is admitted, and an entry claiming optimality must prove it against
// ρ(n). A corrupt or stale snapshot therefore costs only the entries it
// loses, never correctness.
//
// Only λ-class (λK_n) entries are persisted: their demand is recoverable
// from the signature alone, which is what makes load-time re-verification
// possible.

// snapshotVersion guards the file format.
const snapshotVersion = 1

type snapshotFile struct {
	Version   int             `json:"version"`
	Coverings []snapshotEntry `json:"coverings"`
}

type snapshotEntry struct {
	N       int     `json:"n"`
	Lambda  int     `json:"lambda"`
	Method  string  `json:"method"`
	Optimal bool    `json:"optimal"`
	Cycles  [][]int `json:"cycles"`
}

// SaveSnapshot writes the cache's λK_n covering entries as JSON. Entries
// cached under non-default options and hash-class demands are skipped.
func (p *Plans) SaveSnapshot(w io.Writer) error {
	out := snapshotFile{Version: snapshotVersion}
	p.coverings.Each(func(key string, val any) {
		var n, lam int
		// Only default-option λ-class signatures round-trip: "n=%d;d=k%d"
		// with no options suffix.
		if c, err := fmt.Sscanf(key, "n=%d;d=k%d", &n, &lam); err != nil || c != 2 {
			return
		}
		if key != SignatureLambda(n, lam, Options{}) {
			return
		}
		res := val.(CoverResult)
		e := snapshotEntry{N: n, Lambda: lam, Method: string(res.Method), Optimal: res.Optimal}
		for _, cyc := range res.Covering.Cycles {
			e.Cycles = append(e.Cycles, cyc.Vertices())
		}
		out.Coverings = append(out.Coverings, e)
	})
	sort.Slice(out.Coverings, func(i, j int) bool {
		a, b := out.Coverings[i], out.Coverings[j]
		if a.N != b.N {
			return a.N < b.N
		}
		return a.Lambda < b.Lambda
	})
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// LoadSnapshot warms the cache from a snapshot written by SaveSnapshot.
// It returns how many entries were admitted; entries that fail
// reconstruction, verification, or their optimality claim are dropped
// (counted in skipped), and only a malformed stream is an error.
func (p *Plans) LoadSnapshot(r io.Reader) (loaded, skipped int, err error) {
	var in snapshotFile
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return 0, 0, fmt.Errorf("cache: decoding snapshot: %w", err)
	}
	if in.Version != snapshotVersion {
		return 0, 0, fmt.Errorf("cache: snapshot version %d, want %d", in.Version, snapshotVersion)
	}
	for _, e := range in.Coverings {
		res, ok := rebuildEntry(e)
		if !ok {
			skipped++
			continue
		}
		p.coverings.Put(SignatureLambda(e.N, e.Lambda, Options{}), res)
		loaded++
	}
	return loaded, skipped, nil
}

// rebuildEntry reconstructs and fully re-verifies one snapshot entry.
func rebuildEntry(e snapshotEntry) (CoverResult, bool) {
	if e.Lambda < 1 || !enoughSlots(e) {
		return CoverResult{}, false
	}
	rg, err := ring.New(e.N)
	if err != nil {
		return CoverResult{}, false
	}
	cv, err := cover.FromVertexSets(rg, e.Cycles)
	if err != nil {
		return CoverResult{}, false
	}
	demand := graph.LambdaComplete(e.N, e.Lambda)
	if err := cover.Verify(cv, demand); err != nil {
		return CoverResult{}, false
	}
	// An optimality claim must be re-proved, not believed: for K_n that
	// means exactly ρ(n) cycles. For λ > 1 no closed form is implemented,
	// so the claim is dropped rather than trusted.
	optimal := e.Optimal
	if e.Lambda == 1 {
		if optimal && cv.Size() != cover.Rho(e.N) {
			return CoverResult{}, false
		}
	} else {
		optimal = false
	}
	return CoverResult{Covering: cv, Method: construct.Method(e.Method), Optimal: optimal, Demand: demand}, true
}

// enoughSlots reports whether the entry's cycles could cover λK_n at all:
// a DRC cycle on k vertices covers exactly k requests, so a cover needs
// Σ|Cᵢ| ≥ λ·n(n−1)/2 slots. Checked before the Θ(n²) demand is built, it
// bounds that cost by the entry's own size. n ≥ 3 keeps the divisor
// positive, n ≤ slots (every vertex lies on a cycle) keeps it from
// overflowing, and λ is compared by division.
func enoughSlots(e snapshotEntry) bool {
	slots := 0
	for _, c := range e.Cycles {
		slots += len(c)
	}
	if e.N < ring.MinVertices || e.N > slots {
		return false
	}
	return e.Lambda <= slots/(e.N*(e.N-1)/2)
}
