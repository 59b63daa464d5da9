package survive

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"github.com/cyclecover/cyclecover/internal/fanout"
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
// exhaustive single-failure sweep with one worker per core.
type SweepOptions struct {
	// K is the number of simultaneous link failures per scenario; 0
	// selects 1. K = 1 and K = 2 sweeps are exhaustive (every K-subset of
	// links); K ≥ 3 spaces larger than Sample are sampled.
	K int
	// Workers bounds the worker pool that fans scenario evaluation out.
	// 0 defers to the context's fan-out stamp (fanout.Limit) when one is
	// present — inside a server pool job that is the job's fair share of
	// the cores, so nested parallelism does not multiply — and GOMAXPROCS
	// otherwise; 1 forces the serial sweep. The aggregate report is
	// bit-identical for every worker count: workers accumulate integer
	// tallies into private shards that merge deterministically.
	Workers int
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
// evaluated scenarios; the report is bit-identical for every worker
// count (see SweepOptions.Workers).
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
	// Seed echoes the sampler seed (meaningful when Sampled).
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
// demand routes, the flat scenario arena, and the per-worker shards. It
// is drawn from a pool shared across all simulators (the same
// scratch-pool type the server layer uses for its response buffers), so
// steady-state sweeps allocate only what escapes into the result.
type sweepScratch struct {
	routes []demandRoute
	scen   [][]ring.Link // scenario views, each a window into flat
	flat   []ring.Link   // scenario link storage, back to back
	shards []sweepShard
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
// Evaluation fans out over opts.Workers goroutines, each accumulating
// integer tallies into a private shard; shards merge deterministically,
// so the aggregate report is bit-identical to the serial sweep for every
// worker count. Cancellation is polled per scenario: when ctx fires the
// workers stop within one scenario evaluation, and SweepCtx returns the
// partial aggregate (Complete = false, Evaluated < Planned) together
// with ctx's error. A cancel that lands only after the last scenario
// finished does not fail the call — the fully evaluated sweep is
// returned as success. Which scenarios a cancelled parallel sweep had
// evaluated is timing-dependent; everything else about the sweep is not.
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
	workers := opts.Workers
	if workers <= 0 {
		if workers = fanout.Limit(ctx); workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
	}

	sc := sweepScratches.Get()
	defer sweepScratches.Put(sc)

	space := binomial(links, opts.K)
	// planScenarios caps every path at the MaxScenarios budget.
	scenarios, sampled := sc.planScenarios(links, opts, space)
	planned := len(scenarios)
	if workers > planned {
		workers = planned
	}
	if workers < 1 {
		workers = 1
	}

	demands, err := s.demandRoutes(sc)
	if err != nil {
		return SweepResult{}, err
	}
	shards := sc.shardsFor(workers, links, opts.KeepWorst)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := &shards[w]
			// Strided partition: worker w owns scenarios w, w+W, w+2W, …
			// The partition is fixed up front, so each scenario's tallies
			// land in one shard regardless of scheduling.
			for i := w; i < planned; i += workers {
				if ctx.Err() != nil {
					return
				}
				sh.add(i, scenarios[i], s.evaluate(scenarios[i], demands))
			}
		}(w)
	}
	wg.Wait()

	res := mergeShards(shards, opts, space, planned, sampled, len(demands))
	if res.Evaluated < planned {
		// Only a context firing makes workers stop early; a cancel that
		// lands after the last scenario finished does not invalidate a
		// fully evaluated sweep.
		if err := ctx.Err(); err != nil {
			return res, err
		}
	}
	return res, nil
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

// sweepShard is one worker's private aggregate. All fields are integers
// (or derived from integers at merge time), so merging shards in worker
// order reproduces the serial sweep bit for bit.
type sweepShard struct {
	evaluated     int
	served        int64 // unaffected + affected, summed over scenarios
	totalAffected int
	totalLost     int
	lossy         int
	maxSpare      int
	sumSpare      int
	sumWorking    int
	// most is the shard's most-rerouting scenario; worst its lossiest
	// scenarios (capped at keep).
	most     ScenarioReport
	hasMost  bool
	worst    []ScenarioReport
	keep     int
	minServe int // scenario minimum of served demands, for WorstRestoration
	hasMin   bool
	// critScenarios / critLost index by link: lossy-scenario membership
	// counts and lost-demand sums.
	critScenarios []int
	critLost      []int
}

// shardsFor sizes the scratch's shard array for a sweep, resetting each
// shard's counters and reusing its per-link tally storage.
func (sc *sweepScratch) shardsFor(workers, links, keep int) []sweepShard {
	for len(sc.shards) < workers {
		sc.shards = append(sc.shards, sweepShard{})
	}
	shards := sc.shards[:workers]
	for i := range shards {
		shards[i].reset(links, keep)
	}
	return shards
}

// reset clears the shard for a new sweep, reusing its backing arrays.
func (sh *sweepShard) reset(links, keep int) {
	crit, lost, worst := sh.critScenarios, sh.critLost, sh.worst
	*sh = sweepShard{keep: keep, worst: worst[:0]}
	if cap(crit) < links {
		crit = make([]int, links)
		lost = make([]int, links)
	} else {
		crit, lost = crit[:links], lost[:links]
		clear(crit)
		clear(lost)
	}
	sh.critScenarios, sh.critLost = crit, lost
}

func (sh *sweepShard) add(index int, links []ring.Link, t scenarioTally) {
	sh.evaluated++
	served := t.unaffected + t.affected
	sh.served += int64(served)
	sh.totalAffected += t.affected
	sh.totalLost += t.lost
	sh.sumSpare += t.sumSpare
	sh.sumWorking += t.sumWorking
	if t.maxSpare > sh.maxSpare {
		sh.maxSpare = t.maxSpare
	}
	if !sh.hasMin || served < sh.minServe {
		sh.minServe = served
		sh.hasMin = true
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
	if !sh.hasMost || moreAffected(rep, sh.most) {
		sh.most = rep
		sh.most.Links = append([]ring.Link(nil), links...)
		sh.hasMost = true
	}
	if t.lost > 0 {
		sh.lossy++
		for _, l := range links {
			sh.critScenarios[l]++
			sh.critLost[l] += t.lost
		}
		kept := rep
		kept.Links = append([]ring.Link(nil), links...)
		sh.worst = insertWorst(sh.worst, kept, sh.keep)
	}
}

// rate is the restoration rate served/total, 1 for an empty demand.
func rate(served, total int) float64 {
	if total == 0 {
		return 1
	}
	return float64(served) / float64(total)
}

// moreAffected orders scenarios by reroute pressure: more restored
// demands first, ties toward the earlier scenario index (what a serial
// first-wins scan would keep).
func moreAffected(a, b ScenarioReport) bool {
	if a.Affected != b.Affected {
		return a.Affected > b.Affected
	}
	return a.Index < b.Index
}

// lossier orders scenarios by damage: more lost demands first, ties
// toward the earlier scenario index.
func lossier(a, b ScenarioReport) bool {
	if a.Lost != b.Lost {
		return a.Lost > b.Lost
	}
	return a.Index < b.Index
}

// insertWorst keeps the `keep` lossiest reports in sorted order.
func insertWorst(worst []ScenarioReport, rep ScenarioReport, keep int) []ScenarioReport {
	i := sort.Search(len(worst), func(i int) bool { return lossier(rep, worst[i]) })
	if i == len(worst) {
		if len(worst) < keep {
			worst = append(worst, rep)
		}
		return worst
	}
	if len(worst) < keep {
		worst = append(worst, ScenarioReport{})
	}
	copy(worst[i+1:], worst[i:])
	worst[i] = rep
	return worst
}

// mergeShards folds the workers' private aggregates into the final
// report. Every reduction is either an integer sum, an integer max, or a
// comparator with an index tie-break, so the result does not depend on
// how scenarios were interleaved across workers.
func mergeShards(shards []sweepShard, opts SweepOptions, space int64, planned int, sampled bool, demands int) SweepResult {
	res := SweepResult{
		K:         opts.K,
		Scenarios: space,
		Planned:   planned,
		Sampled:   sampled,
		Seed:      opts.Seed,
	}
	var served int64
	minServe, hasMin := 0, false
	var most ScenarioReport
	hasMost := false
	var worst []ScenarioReport
	links := 0
	for i := range shards {
		sh := &shards[i]
		links = len(sh.critScenarios)
		res.Evaluated += sh.evaluated
		res.TotalAffected += sh.totalAffected
		res.TotalLost += sh.totalLost
		res.LossyScenarios += sh.lossy
		res.SumSpareLen += sh.sumSpare
		res.SumWorkingLen += sh.sumWorking
		served += sh.served
		if sh.maxSpare > res.MaxSpareLen {
			res.MaxSpareLen = sh.maxSpare
		}
		if sh.hasMin && (!hasMin || sh.minServe < minServe) {
			minServe = sh.minServe
			hasMin = true
		}
		if sh.hasMost && (!hasMost || moreAffected(sh.most, most)) {
			most = sh.most
			hasMost = true
		}
		for _, rep := range sh.worst {
			worst = insertWorst(worst, rep, opts.KeepWorst)
		}
	}
	res.AllRestored = res.TotalLost == 0
	res.Complete = !sampled && res.Evaluated == planned && int64(planned) == space
	res.MostAffected = most
	res.Worst = worst
	res.MeanRestoration, res.WorstRestoration = 1, 1
	if res.Evaluated > 0 && demands > 0 {
		res.MeanRestoration = float64(served) / (float64(res.Evaluated) * float64(demands))
		res.WorstRestoration = rate(minServe, demands)
	}
	if res.LossyScenarios > 0 {
		crit := make([]LinkCriticality, 0, links)
		for l := 0; l < links; l++ {
			sc, lost := 0, 0
			for i := range shards {
				sc += shards[i].critScenarios[l]
				lost += shards[i].critLost[l]
			}
			if sc > 0 {
				crit = append(crit, LinkCriticality{Link: ring.Link(l), Scenarios: sc, LostDemands: lost})
			}
		}
		res.Critical = crit
	}
	return res
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
	rng := rand.New(rand.NewSource(seed))
	if space <= 2*int64(count) {
		all := enumerate(links, k, space)
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		all = all[:count]
		sortScenarios(all)
		return all
	}
	seen := make(map[string]bool, count)
	out := make([][]ring.Link, 0, count)
	buf := make([]byte, 2*k)
	for len(out) < count {
		combo := randomSubset(rng, links, k)
		for i, l := range combo {
			buf[2*i] = byte(l)
			buf[2*i+1] = byte(int(l) >> 8)
		}
		key := string(buf)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, combo)
	}
	sortScenarios(out)
	return out
}

// randomSubset draws a uniform k-subset of [0, links) by Floyd's
// algorithm and returns it sorted.
func randomSubset(rng *rand.Rand, links, k int) []ring.Link {
	chosen := make(map[int]bool, k)
	for j := links - k; j < links; j++ {
		t := rng.Intn(j + 1)
		if chosen[t] {
			chosen[j] = true
		} else {
			chosen[t] = true
		}
	}
	out := make([]ring.Link, 0, k)
	//cyclecover:nondet keys are sorted immediately below before any use
	for v := range chosen {
		out = append(out, ring.Link(v))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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
