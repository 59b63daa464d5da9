package survive

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"

	"github.com/cyclecover/cyclecover/internal/ring"
	"github.com/cyclecover/cyclecover/internal/scratch"
)

// DefaultSample bounds the sampled scenario set of a k ≥ 3 sweep when
// SweepOptions.Sample is zero. Exhaustive spaces no larger than this are
// enumerated instead of sampled.
const DefaultSample = 1024

// DefaultScenarioLimit bounds the number of scenarios a sweep evaluates
// when SweepOptions.MaxScenarios is zero, mirroring the node budget of
// construct.ExactOptions: determinism comes from a fixed work bound, not
// a wall clock.
const DefaultScenarioLimit = 1 << 20

// SweepOptions configures a k-failure sweep. The zero value runs the
// exhaustive single-failure sweep.
type SweepOptions struct {
	// K is the number of simultaneous link failures per scenario; 0
	// selects 1. K = 1 and K = 2 sweeps are exhaustive (every K-subset of
	// links); K ≥ 3 spaces larger than Sample are sampled.
	K int
	// Sample bounds the scenario set of a K ≥ 3 sweep; 0 selects
	// DefaultSample. A space no larger than Sample is enumerated
	// exhaustively; a larger one is sampled without replacement by the
	// seeded generator, so the scenario set is a pure function of
	// (links, K, Sample, Seed).
	Sample int
	// Seed drives the K ≥ 3 scenario sampler. Equal seeds reproduce the
	// exact scenario set; it has no effect on exhaustive sweeps.
	Seed int64
	// MaxScenarios caps the number of scenarios evaluated, mirroring
	// ExactOptions.NodeLimit; 0 selects DefaultScenarioLimit. The cap
	// truncates the deterministic scenario sequence before evaluation
	// (never a race), so a budget-cut sweep is still reproducible; it
	// reports Complete = false.
	MaxScenarios int64
	// KeepWorst bounds the per-scenario reports retained in
	// SweepResult.Worst (the lossiest scenarios); 0 selects 1.
	KeepWorst int
}

// ScenarioReport is the structured outcome of one failure scenario.
type ScenarioReport struct {
	// Index is the scenario's position in the sweep's deterministic
	// evaluation sequence; replay it with Simulator.Fail(Links...).
	Index int `json:"index"`
	// Links is the failed link set, in ascending ring order.
	Links []ring.Link `json:"links"`
	// Unaffected, Affected and Lost partition the demands: working arc
	// intact; broken but restored around the cycle; both paths broken.
	Unaffected int `json:"unaffected"`
	Affected   int `json:"affected"`
	Lost       int `json:"lost"`
	// MaxSpareLen is the longest protection path switched onto in this
	// scenario (0 when nothing was rerouted).
	MaxSpareLen int `json:"maxSpareLen"`
	// Rate is the fraction of demands still served.
	Rate float64 `json:"rate"`
}

// LinkCriticality attributes loss to a physical link: across the lossy
// scenarios of a sweep, how often the link was part of the failed set and
// how much demand those scenarios lost.
type LinkCriticality struct {
	Link ring.Link `json:"link"`
	// Scenarios is the number of lossy scenarios whose failed set
	// includes the link.
	Scenarios int `json:"scenarios"`
	// LostDemands sums the lost demands of those scenarios.
	LostDemands int `json:"lostDemands"`
}

// SweepResult aggregates a k-failure sweep. All counters are summed over
// evaluated scenarios.
type SweepResult struct {
	// K is the failure multiplicity swept.
	K int `json:"k"`
	// Scenarios is the size of the full scenario space: C(links, K).
	Scenarios int64 `json:"scenarios"`
	// Planned is the number of scenarios selected for evaluation after
	// sampling and the MaxScenarios budget.
	Planned int `json:"planned"`
	// Evaluated is the number of scenarios actually evaluated; below
	// Planned only when the sweep was cancelled mid-flight.
	Evaluated int `json:"evaluated"`
	// Sampled reports that the scenario set is a seeded sample, not the
	// full space.
	Sampled bool `json:"sampled"`
	// Seed echoes the sampler seed when Sampled, and is 0 otherwise.
	Seed int64 `json:"seed"`
	// Complete reports an exhaustive, uninterrupted sweep: every
	// scenario of the space was evaluated. A sampled, budget-cut or
	// cancelled sweep reports false — its aggregates are estimates.
	Complete bool `json:"complete"`

	// AllRestored reports that no evaluated scenario lost any demand.
	AllRestored bool `json:"allRestored"`
	// LossyScenarios counts evaluated scenarios with at least one lost
	// demand.
	LossyScenarios int `json:"lossyScenarios"`
	// MeanRestoration and WorstRestoration are the mean and minimum
	// per-scenario restoration rates (1 when nothing was evaluated).
	MeanRestoration  float64 `json:"meanRestoration"`
	WorstRestoration float64 `json:"worstRestoration"`
	// TotalAffected and TotalLost sum restored and lost demands over all
	// evaluated scenarios.
	TotalAffected int `json:"totalAffected"`
	TotalLost     int `json:"totalLost"`
	// MaxSpareLen is the longest protection path any scenario switched
	// onto; SumSpareLen and SumWorkingLen sum over every restoration
	// (mean spare length = SumSpareLen / TotalAffected).
	MaxSpareLen   int `json:"maxSpareLen"`
	SumSpareLen   int `json:"sumSpareLen"`
	SumWorkingLen int `json:"sumWorkingLen"`

	// Worst holds the KeepWorst lossiest scenarios (most lost demands
	// first, ties toward the earliest scenario index). Worst[0] is the
	// worst case of the sweep; its Lost is the worst-case lost demand.
	Worst []ScenarioReport `json:"worst,omitempty"`
	// MostAffected is the scenario that rerouted the most demands — for
	// K = 1, the single link whose failure stresses protection hardest.
	MostAffected ScenarioReport `json:"mostAffected"`
	// Critical lists, per link appearing in at least one lossy scenario,
	// how much loss it participated in, in ascending link order. Empty
	// when AllRestored.
	Critical []LinkCriticality `json:"critical,omitempty"`
}

// sweepScratch is the reusable working state of one sweep: the resolved
// demand routes, the flat scenario arena, and the per-link loss tallies.
// It is drawn from a pool shared across all simulators (the same
// scratch-pool type the server layer uses for its response buffers), so
// steady-state sweeps allocate only what escapes into the result.
type sweepScratch struct {
	routes []demandRoute
	scen   [][]ring.Link // scenario views, each a window into flat
	flat   []ring.Link   // scenario link storage, back to back
	// critScenarios and critLost index by link: lossy-scenario
	// membership counts and lost-demand sums.
	critScenarios, critLost []int
}

var sweepScratches = scratch.NewPool(func() *sweepScratch { return &sweepScratch{} })

// SweepCtx evaluates every planned failure scenario of multiplicity
// opts.K against the network and aggregates the outcome.
//
// The scenario sequence is deterministic before any evaluation starts:
// K = 1 and K = 2 enumerate all subsets in lexicographic order; K ≥ 3
// enumerates when the space fits opts.Sample and otherwise samples
// without replacement with the seeded generator. The MaxScenarios budget
// truncates that sequence, so what a bounded sweep measures is
// reproducible.
//
// Scenarios are evaluated in sequence order on the caller's goroutine,
// each folded into one running aggregate. ctx is polled before every
// scenario: when it fires, SweepCtx returns the aggregate of the
// scenarios evaluated so far — a prefix of the sequence, Complete =
// false, Evaluated < Planned — together with ctx's error. A cancel that
// lands only after the last scenario does not fail the call.
func (s *Simulator) SweepCtx(ctx context.Context, opts SweepOptions) (SweepResult, error) {
	links := s.nw.Ring.Links()
	if opts.K == 0 {
		opts.K = 1
	}
	if opts.K < 0 || opts.K > links {
		return SweepResult{}, fmt.Errorf("survive: k = %d outside [1, %d] for a ring of %d links", opts.K, links, links)
	}
	if opts.Sample <= 0 {
		opts.Sample = DefaultSample
	}
	if opts.MaxScenarios <= 0 {
		opts.MaxScenarios = DefaultScenarioLimit
	}
	if opts.KeepWorst <= 0 {
		opts.KeepWorst = 1
	}

	sc := sweepScratches.Get()
	defer sweepScratches.Put(sc)

	space := binomial(links, opts.K)
	// planScenarios caps every path at the MaxScenarios budget.
	scenarios, sampled := sc.planScenarios(links, opts, space)
	demands, err := s.demandRoutes(sc)
	if err != nil {
		return SweepResult{}, err
	}
	agg := sweepAgg{
		res:  SweepResult{K: opts.K, Scenarios: space, Planned: len(scenarios), Sampled: sampled},
		keep: opts.KeepWorst,
	}
	if sampled {
		agg.res.Seed = opts.Seed
	}
	agg.critScenarios, agg.critLost = sc.tallies(links)
	for i, failed := range scenarios {
		if err = ctx.Err(); err != nil {
			break
		}
		agg.add(i, failed, s.evaluate(failed, demands))
	}
	return agg.result(len(demands)), err
}

// scenarioTally is the integer outcome of one scenario evaluation.
type scenarioTally struct {
	unaffected, affected, lost     int
	maxSpare, sumSpare, sumWorking int
}

// demandRoute is a demand's scenario-invariant routing data, resolved
// once per sweep and reduced to plain integers: the working arc's start
// and length, plus the protection complement's (which starts where the
// working arc ends). The evaluation loop then runs pure offset
// arithmetic — no Arc methods, no modulo.
type demandRoute struct {
	wFrom, wl int // working arc: first link, length in links
	sFrom, sl int // spare (complement) arc
}

// demandRoutes resolves every demand's working and spare arc up front
// into the scratch's route buffer. A demand the network does not route is
// an error, exactly as in Fail — silently skipping it would report
// survivability for traffic that was never protected.
func (s *Simulator) demandRoutes(sc *sweepScratch) ([]demandRoute, error) {
	r := s.nw.Ring
	sc.routes = sc.routes[:0]
	var err error
	s.nw.Demand.ForEachEdge(func(u, v, _ int) bool {
		arc, ok := s.nw.WorkingArc(u, v)
		if !ok {
			err = fmt.Errorf("survive: demand {%d,%d} has no subnetwork", u, v)
			return false
		}
		wl := arc.Len(r)
		sc.routes = append(sc.routes, demandRoute{
			wFrom: arc.From, wl: wl,
			sFrom: arc.To, sl: r.N() - wl,
		})
		return true
	})
	if err != nil {
		return nil, err
	}
	return sc.routes, nil
}

// evaluate computes one scenario's tally. It is Fail without the
// per-request reroute records: same classification (unaffected /
// restored / lost) per demand, integer counters only, no allocation on
// the hot path. links must be valid, normalised ring links.
//
//cyclecover:noalloc
func (s *Simulator) evaluate(links []ring.Link, demands []demandRoute) scenarioTally {
	n := s.nw.Ring.N()
	var t scenarioTally
	for i := range demands {
		d := &demands[i]
		if !brokenBy(n, d.wFrom, d.wl, links) {
			t.unaffected++
			continue
		}
		if brokenBy(n, d.sFrom, d.sl, links) {
			t.lost++
			continue
		}
		t.affected++
		t.sumWorking += d.wl
		t.sumSpare += d.sl
		if d.sl > t.maxSpare {
			t.maxSpare = d.sl
		}
	}
	return t
}

// brokenBy reports whether any failed link lies on the clockwise arc of
// `length` links starting at link `from` — Arc.Contains unrolled to a
// branch-only offset test. The failed set is a tiny slice (K links), so a
// linear scan beats a map.
//
//cyclecover:noalloc
func brokenBy(n, from, length int, failed []ring.Link) bool {
	for _, l := range failed {
		d := int(l) - from
		if d < 0 {
			d += n
		}
		if d < length {
			return true
		}
	}
	return false
}

// tallies returns the scratch's per-link tally arrays, sized for a ring
// of `links` links and cleared, reusing their backing storage.
func (sc *sweepScratch) tallies(links int) (scenarios, lost []int) {
	if cap(sc.critScenarios) < links {
		sc.critScenarios, sc.critLost = make([]int, links), make([]int, links)
	} else {
		sc.critScenarios, sc.critLost = sc.critScenarios[:links], sc.critLost[:links]
		clear(sc.critScenarios)
		clear(sc.critLost)
	}
	return sc.critScenarios, sc.critLost
}

// sweepAgg is the running aggregate of one sweep. Scenarios fold into it
// in sequence order, so "first wins" on a tie keeps the earliest
// scenario index.
type sweepAgg struct {
	res      SweepResult
	keep     int   // KeepWorst
	served   int64 // unaffected + affected, summed over scenarios
	minServe int   // fewest demands any scenario served, for WorstRestoration
	// critScenarios and critLost are the scratch's per-link tallies.
	critScenarios, critLost []int
}

// add folds scenario `index`, failing `links`, into the aggregate.
func (a *sweepAgg) add(index int, links []ring.Link, t scenarioTally) {
	res := &a.res
	res.Evaluated++
	served := t.unaffected + t.affected
	a.served += int64(served)
	res.TotalAffected += t.affected
	res.TotalLost += t.lost
	res.SumSpareLen += t.sumSpare
	res.SumWorkingLen += t.sumWorking
	res.MaxSpareLen = max(res.MaxSpareLen, t.maxSpare)
	if index == 0 || served < a.minServe {
		a.minServe = served
	}
	rep := ScenarioReport{
		Index:       index,
		Links:       links,
		Unaffected:  t.unaffected,
		Affected:    t.affected,
		Lost:        t.lost,
		MaxSpareLen: t.maxSpare,
		Rate:        rate(served, served+t.lost),
	}
	// A retained report escapes the sweep (into SweepResult), while the
	// scenario link sets live in pooled scratch — copy on retention.
	if index == 0 || t.affected > res.MostAffected.Affected {
		res.MostAffected = rep
		res.MostAffected.Links = append([]ring.Link(nil), links...)
	}
	if t.lost > 0 {
		res.LossyScenarios++
		for _, l := range links {
			a.critScenarios[l]++
			a.critLost[l] += t.lost
		}
		res.Worst = keepWorst(res.Worst, rep, a.keep)
	}
}

// result finishes the aggregate over `demands` demands: completeness,
// the restoration rates, and the per-link criticality list.
func (a *sweepAgg) result(demands int) SweepResult {
	res := a.res
	res.AllRestored = res.TotalLost == 0
	res.Complete = !res.Sampled && res.Evaluated == res.Planned && int64(res.Planned) == res.Scenarios
	res.MeanRestoration, res.WorstRestoration = 1, 1
	if res.Evaluated > 0 && demands > 0 {
		res.MeanRestoration = float64(a.served) / (float64(res.Evaluated) * float64(demands))
		res.WorstRestoration = rate(a.minServe, demands)
	}
	if res.LossyScenarios > 0 {
		res.Critical = make([]LinkCriticality, 0, len(a.critScenarios))
		for l, sc := range a.critScenarios {
			if sc > 0 {
				res.Critical = append(res.Critical, LinkCriticality{Link: ring.Link(l), Scenarios: sc, LostDemands: a.critLost[l]})
			}
		}
	}
	return res
}

// rate is the restoration rate served/total, 1 for an empty demand.
func rate(served, total int) float64 {
	if total == 0 {
		return 1
	}
	return float64(served) / float64(total)
}

// keepWorst retains rep among the `keep` lossiest reports, most lost
// demands first. Reports arrive in scenario order, so an equal loss
// ranks after the reports already kept. A retained report's link set is
// copied out of the pooled scratch.
func keepWorst(worst []ScenarioReport, rep ScenarioReport, keep int) []ScenarioReport {
	i := sort.Search(len(worst), func(i int) bool { return rep.Lost > worst[i].Lost })
	if i == keep {
		return worst
	}
	rep.Links = append([]ring.Link(nil), rep.Links...)
	if len(worst) < keep {
		worst = append(worst, ScenarioReport{})
	}
	copy(worst[i+1:], worst[i:])
	worst[i] = rep
	return worst
}

// binomial returns C(n, k), saturating at 1<<62 so huge spaces report a
// finite size without overflow.
func binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	const cap62 = int64(1) << 62
	v := int64(1)
	for i := 1; i <= k; i++ {
		// v is exact at each step because C(n,k) prefixes are integers;
		// multiply before divide, guarding the overflow.
		if v > cap62/int64(n-k+i) {
			return cap62
		}
		v = v * int64(n-k+i) / int64(i)
	}
	return v
}

// planScenarios fixes the deterministic scenario sequence for the sweep:
// lexicographic enumeration when the space fits the budget (always for
// K ≤ 2, and for K ≥ 3 spaces no larger than Sample), a seeded sample
// without replacement otherwise. The budget cap is applied by the
// caller; enumeration stops early at MaxScenarios so a truncated sweep
// never materialises the whole space. The exhaustive path fills the
// scratch's flat scenario arena — no per-scenario allocation in steady
// state; the sequence is identical either way.
func (sc *sweepScratch) planScenarios(links int, opts SweepOptions, space int64) (scenarios [][]ring.Link, sampled bool) {
	limit := opts.MaxScenarios
	if opts.K <= 2 || space <= int64(opts.Sample) {
		return sc.enumerate(links, opts.K, limit), false
	}
	if limit > int64(opts.Sample) {
		limit = int64(opts.Sample)
	}
	return sampleScenarios(links, opts.K, int(limit), opts.Seed, space), true
}

// combinations yields the first `limit` K-subsets of [0, links) in
// lexicographic order, passing the current index set to yield; yield
// returning false stops the walk. The index slice is reused between
// calls and must be copied out by the consumer.
func combinations(links, k int, limit int64, idx []int, yield func([]int) bool) {
	if k == 0 || int64(len(idx)) != int64(k) {
		return
	}
	for i := range idx {
		idx[i] = i
	}
	for count := int64(0); count < limit; count++ {
		if !yield(idx) {
			return
		}
		// Advance to the next combination.
		i := k - 1
		for i >= 0 && idx[i] == links-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// enumerate lists the first `limit` K-subsets of the links in
// lexicographic order as windows into the scratch's flat arena.
func (sc *sweepScratch) enumerate(links, k int, limit int64) [][]ring.Link {
	sc.scen = sc.scen[:0]
	sc.flat = sc.flat[:0]
	if k == 0 {
		return append(sc.scen, []ring.Link{})
	}
	// Pre-size the arena so subslice windows are never split across a
	// growth reallocation.
	want := limit
	if space := binomial(links, k); space < want {
		want = space
	}
	if need := int(want) * k; cap(sc.flat) < need {
		sc.flat = make([]ring.Link, 0, need)
	}
	var idxArr [8]int // K is tiny (cycled caps it at 6); spill only beyond
	var idxs []int
	if k <= len(idxArr) {
		idxs = idxArr[:k]
	} else {
		idxs = make([]int, k)
	}
	combinations(links, k, limit, idxs, func(combo []int) bool {
		off := len(sc.flat)
		for _, v := range combo {
			sc.flat = append(sc.flat, ring.Link(v))
		}
		sc.scen = append(sc.scen, sc.flat[off:len(sc.flat):len(sc.flat)])
		return true
	})
	return sc.scen
}

// enumerate lists the first `limit` K-subsets as freshly allocated
// slices — the sampler's dense-regime fallback, which shuffles and
// retains them beyond any scratch lifetime.
func enumerate(links, k int, limit int64) [][]ring.Link {
	if k == 0 {
		return [][]ring.Link{{}}
	}
	var out [][]ring.Link
	combinations(links, k, limit, make([]int, k), func(combo []int) bool {
		scenario := make([]ring.Link, k)
		for i, v := range combo {
			scenario[i] = ring.Link(v)
		}
		out = append(out, scenario)
		return true
	})
	return out
}

// sampleScenarios draws `count` distinct K-subsets with the seeded
// generator and returns them in lexicographic order — a pure function of
// (links, k, count, seed). When the requested sample covers more than
// half the space, rejection sampling degrades, so the full space is
// enumerated (it is at most 2·count subsets) and shuffled instead.
func sampleScenarios(links, k, count int, seed int64, space int64) [][]ring.Link {
	rng := scratch.Rands.Get()
	defer scratch.Rands.Put(rng)
	rng.Seed(seed)
	if space <= 2*int64(count) {
		all := enumerate(links, k, space)
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		all = all[:count]
		sortScenarios(all)
		return all
	}
	// Each draw is keyed by its links packed into one integer, width bits
	// apiece; the service's draws (k ≤ 6 on at most 1024 links) always
	// pack. A draw too wide to pack is keyed by its text.
	width := bits.Len(uint(links - 1))
	packed := k*width <= 64
	seen := make(map[uint64]bool, count)
	var seenWide map[string]bool
	if !packed {
		seenWide = make(map[string]bool, count)
	}
	// The scenarios are carved from one backing array.
	backing := make([]ring.Link, 0, count*k)
	out := make([][]ring.Link, 0, count)
	var drawArr [8]ring.Link
	draw := drawArr[:0]
	for len(out) < count {
		draw = randomSubset(rng, links, k, draw)
		if packed {
			key := uint64(0)
			for _, l := range draw {
				key = key<<width | uint64(l)
			}
			if seen[key] {
				continue
			}
			seen[key] = true
		} else {
			key := fmt.Sprint(draw)
			if seenWide[key] {
				continue
			}
			seenWide[key] = true
		}
		off := len(backing)
		backing = append(backing, draw...)
		out = append(out, backing[off:len(backing):len(backing)])
	}
	sortScenarios(out)
	return out
}

// randomSubset draws a uniform k-subset of [0, links) by Floyd's
// algorithm into buf, kept sorted, and returns it.
func randomSubset(rng *rand.Rand, links, k int, buf []ring.Link) []ring.Link {
	buf = buf[:0]
	for j := links - k; j < links; j++ {
		t := ring.Link(rng.Intn(j + 1))
		i, taken := slices.BinarySearch(buf, t)
		if taken {
			// Floyd takes j instead, which exceeds every link drawn so far.
			t, i = ring.Link(j), len(buf)
		}
		buf = slices.Insert(buf, i, t)
	}
	return buf
}

// sortScenarios orders scenario link sets lexicographically.
func sortScenarios(ss [][]ring.Link) {
	sort.Slice(ss, func(i, j int) bool {
		a, b := ss[i], ss[j]
		for x := range a {
			if a[x] != b[x] {
				return a[x] < b[x]
			}
		}
		return false
	})
}
