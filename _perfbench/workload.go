package main

// Workload sequences. Every request a run sends — preload, warm-up and
// timed phase — is generated here from the seed alone, before the daemon
// starts, so two runs of one seed send the identical sequence. Counts
// scale with the run length; nothing is timed here.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"github.com/cyclecover/cyclecover/internal/cache"
	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/instance"
)

// Kind names a request type; the value is the wire endpoint's role.
type Kind string

const (
	KindPlan     Kind = "plan"     // GET /plan
	KindBatch    Kind = "batch"    // POST /plan/batch
	KindVerify   Kind = "verify"   // POST /verify of a plan the daemon returned
	KindDelta    Kind = "delta"    // POST /plan/delta
	KindSimulate Kind = "simulate" // GET /simulate
)

// Item is one planning instance: a ring or host size and a demand spec.
type Item struct {
	N    int    `json:"n"`
	Spec string `json:"demand"`
}

func (it Item) String() string { return fmt.Sprintf("%d/%s", it.N, it.Spec) }

// Request is one request of a sequence.
type Request struct {
	Kind Kind `json:"kind"`
	// Item is the instance of a plan, verify or simulate request, and the
	// session opener of a delta request.
	Item Item `json:"item"`
	// Items are the lines of a batch.
	Items []Item `json:"items,omitempty"`
	// Deltas are the delta specs applied to Item so far, this step last.
	Deltas []string `json:"deltas,omitempty"`
	// Parent is the signature a delta step targets.
	Parent string `json:"parent,omitempty"`
	// Sig is the signature the answer must carry (plan, delta, simulate).
	Sig string `json:"sig,omitempty"`
	// K, Sample and SimSeed are the /simulate sweep parameters.
	K       int   `json:"k,omitempty"`
	Sample  int   `json:"sample,omitempty"`
	SimSeed int64 `json:"simSeed,omitempty"`
	// Dual marks a cold-ring opener sent on both connections at once.
	Dual bool `json:"dual,omitempty"`
}

// Unit is a run of requests one connection sends in order: a cold-ring
// session, or a single request.
type Unit []Request

// Sequence is everything one run sends.
type Sequence struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Snapshot lists the λK_n plans written to the boot snapshot (warm).
	Snapshot []Item `json:"snapshot,omitempty"`
	// Preload lists the working set fetched once after boot (warm).
	Preload []Item `json:"preload,omitempty"`
	Warmup  []Unit `json:"warmup"`
	Timed   []Unit `json:"timed"`
}

// Requests flattens the timed units in order; a request's index here is
// its id in every record of the run.
func (s *Sequence) Requests() []*Request { return flatten(s.Timed) }

func flatten(units []Unit) []*Request {
	var out []*Request
	for i := range units {
		for j := range units[i] {
			out = append(out, &units[i][j])
		}
	}
	return out
}

// Workloads lists the workload names in BENCHMARK.json order.
var Workloads = []string{"warm", "cold-ring", "cold-general"}

// Generate builds the sequence of a workload for a seed. seconds scales
// the request counts, which were sized so that the timed phase lasts
// about that long on a 2-vCPU host; the run is bounded by the count, not
// by a clock.
func Generate(workload string, seed int64, seconds int) (*Sequence, error) {
	scale := float64(seconds) / 10
	g := &gen{
		rng:  rand.New(rand.NewPCG(uint64(seed), streamOf(workload))),
		used: map[string]bool{},
		sigs: map[Item]string{},
	}
	seq := &Sequence{Workload: workload, Seed: seed}
	var err error
	switch workload {
	case "warm":
		err = g.warm(seq, scale)
	case "cold-ring":
		err = g.coldRing(seq, scale)
	case "cold-general":
		err = g.coldGeneral(seq, scale)
	default:
		err = fmt.Errorf("unknown workload %q (have %v)", workload, Workloads)
	}
	if err != nil {
		return nil, err
	}
	return seq, nil
}

func streamOf(workload string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(workload); i++ {
		h ^= uint64(workload[i])
		h *= 1099511628211
	}
	return h
}

type gen struct {
	rng  *rand.Rand
	used map[string]bool // signatures already planned in this process
	sigs map[Item]string
}

// scaled returns round(base·scale), at least floor.
func scaled(base int, scale float64, floor int) int {
	return max(int(math.Round(float64(base)*scale)), floor)
}

// spread returns m category indices whose counts are proportional to the
// weights (largest-remainder rounding), in r's random order: every run
// of a given length gets the same mix.
func spread(r *rand.Rand, m int, weights ...float64) []int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	counts := make([]int, len(weights))
	rem := make([]float64, len(weights))
	given := 0
	for i, w := range weights {
		exact := float64(m) * w / total
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		given += counts[i]
	}
	for ; given < m; given++ {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
	}
	out := make([]int, 0, m)
	for i, c := range counts {
		for j := 0; j < c; j++ {
			out = append(out, i)
		}
	}
	shuffle(r, out)
	return out
}

func shuffle[T any](r *rand.Rand, xs []T) {
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// sig returns the cache signature of an item, memoised.
func (g *gen) sig(it Item) (string, error) {
	if s, ok := g.sigs[it]; ok {
		return s, nil
	}
	in, err := instance.Parse(it.N, it.Spec)
	if err != nil {
		return "", fmt.Errorf("item %v: %w", it, err)
	}
	s := sigOf(in)
	g.sigs[it] = s
	return s, nil
}

// fresh reports whether an item's signature is new to the process and,
// if so, claims it.
func (g *gen) fresh(it Item) (string, bool, error) {
	s, err := g.sig(it)
	if err != nil || g.used[s] {
		return s, false, err
	}
	g.used[s] = true
	return s, true, nil
}

// zipfWeights returns the Zipf popularity weights 1/(rank+1)^s of ranks
// 0..n-1.
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
	}
	return w
}

// ---- warm ----

// warmSet is the warm working set: λK_n plans for the boot snapshot, hub
// and random ring demands, and general hosts. Its shape is the same for
// every seed; r picks only the random demands' seeds. It fits the
// daemon's default cache (256 entries per store) with room to spare, so
// the timed phase evicts nothing.
func warmSet(r *rand.Rand) (lambda, ringOther, general []Item) {
	for _, n := range []int{5, 7, 9, 11, 13, 15, 17, 19, 21, 25, 29, 31, 37, 41, 45, 51, 55, 61, 67, 71, 77, 81, 87, 91, 95, 99, 101} {
		lambda = append(lambda, Item{n, "alltoall"})
	}
	// Even n = 18 and 20 are left out: their optimal construction takes
	// seconds, which would only slow the snapshot preparation.
	for _, n := range []int{4, 6, 8, 10, 12, 14, 16, 22, 24, 28, 32, 36, 40, 48, 50, 56, 60, 64, 70, 76, 80, 88, 96, 100} {
		lambda = append(lambda, Item{n, "alltoall"})
	}
	for _, n := range []int{7, 11, 16, 21, 31, 41, 51} {
		lambda = append(lambda, Item{n, "lambda:2"})
	}
	for _, n := range []int{9, 13} {
		lambda = append(lambda, Item{n, "lambda:3"})
	}
	for _, n := range []int{8, 12, 16, 24, 32, 48, 64, 80, 101} {
		ringOther = append(ringOther, Item{n, fmt.Sprintf("hub:%d", n/3)})
	}
	for _, n := range []int{10, 16, 20, 30, 40, 50, 64, 80} {
		for _, d := range []string{"0.2", "0.5"} {
			ringOther = append(ringOther, Item{n, fmt.Sprintf("random:%s:%d", d, r.Int64N(1<<40))})
		}
	}
	general = append(general, Item{10, "petersen"}, Item{18, "blanusa:1"}, Item{18, "blanusa:2"})
	for _, k := range []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 22, 25, 30} {
		general = append(general, Item{2 * k, fmt.Sprintf("prism:%d", k)})
	}
	for _, k := range []int{3, 5, 11, 13} {
		general = append(general, Item{4 * k, fmt.Sprintf("flower:%d", k)})
	}
	for _, n := range []int{10, 12, 14, 16} {
		for _, s := range []int{1, 2} {
			general = append(general, Item{n, fmt.Sprintf("cubic:%d", s)})
		}
	}
	for _, n := range []int{44, 50, 60, 80, 100} {
		general = append(general, Item{n, "cubic:1"})
	}
	return lambda, ringOther, general
}

// rankOrder is the fixed popularity ranking of a category: a shuffle
// under a constant seed, so sizes interleave and every run seed shares
// the same hot set.
func rankOrder(items []Item) []Item {
	out := slices.Clone(items)
	r := rand.New(rand.NewPCG(1, 2))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Warm request mix: the share of each request type in the warm-up and
// the timed phase.
const (
	warmPlanLambda = 0.46
	warmPlanOther  = 0.15
	warmPlanGen    = 0.15
	warmBatch      = 0.06
	warmVerify     = 0.18
)

func (g *gen) warm(seq *Sequence, scale float64) error {
	lambda, ringOther, general := warmSet(g.rng)
	seq.Snapshot = lambda
	seq.Preload = append(append(slices.Clone(lambda), ringOther...), general...)
	for _, it := range seq.Preload {
		if _, _, err := g.fresh(it); err != nil {
			return err
		}
	}
	cats := [][]Item{rankOrder(lambda), rankOrder(ringOther), rankOrder(general)}
	all := rankOrder(seq.Preload)
	// pick returns m items of a ranked list in Zipf proportions, in
	// shuffled order.
	pick := func(items []Item, m int) []Item {
		out := make([]Item, 0, m)
		for _, i := range spread(g.rng, m, zipfWeights(len(items), 0.9)...) {
			out = append(out, items[i])
		}
		return out
	}
	phase := func(m int) ([]Unit, error) {
		kinds := spread(g.rng, m, warmPlanLambda, warmPlanOther, warmPlanGen, warmBatch, warmVerify)
		count := make([]int, 5)
		for _, k := range kinds {
			count[k]++
		}
		// Batch sizes run evenly over 8..16, and batch items take the
		// categories in the single-plan proportions.
		sizes := spread(g.rng, count[3], 1, 1, 1, 1, 1, 1, 1, 1, 1)
		lines := 0
		for i := range sizes {
			sizes[i] += 8
			lines += sizes[i]
		}
		lineCats := spread(g.rng, lines, warmPlanLambda, warmPlanOther, warmPlanGen)
		lineCount := make([]int, 3)
		for _, c := range lineCats {
			lineCount[c]++
		}
		var plans, batchLines [3][]Item
		for c := range cats {
			plans[c] = pick(cats[c], count[c])
			batchLines[c] = pick(cats[c], lineCount[c])
		}
		verifies := pick(all, count[4])
		pop := func(q *[]Item) Item {
			it := (*q)[0]
			*q = (*q)[1:]
			return it
		}
		var units []Unit
		for _, k := range kinds {
			var r Request
			switch k {
			case 0, 1, 2:
				r = Request{Kind: KindPlan, Item: pop(&plans[k])}
			case 3:
				r = Request{Kind: KindBatch}
				for i := sizes[0]; i > 0; i-- {
					c := lineCats[0]
					lineCats = lineCats[1:]
					r.Items = append(r.Items, pop(&batchLines[c]))
				}
				sizes = sizes[1:]
			case 4:
				r = Request{Kind: KindVerify, Item: pop(&verifies)}
			}
			if r.Kind == KindPlan {
				s, err := g.sig(r.Item)
				if err != nil {
					return nil, err
				}
				r.Sig = s
			}
			units = append(units, Unit{r})
		}
		return units, nil
	}
	var err error
	if seq.Warmup, err = phase(warmWarmup); err != nil {
		return err
	}
	seq.Timed, err = phase(scaled(warmTimed, scale, 200))
	return err
}

// warmTimed is the warm timed-phase request count per 10 s of run, and
// warmWarmup the warm-up's request count. Warm-ups do not scale with the
// run length, so set-up time is the same for every run length.
const (
	warmTimed  = 19000
	warmWarmup = 1500
)

// ---- cold-ring ----

// ringStratum is a band of ring sizes with a fixed session count per
// 10 s of run, of which lambda open with a λK_n, and a fixed warm-up
// session count. Stratifying keeps the costly large rings at a fixed
// share of every run instead of a seed-dependent one. λK_n openers are
// few because each odd (n, λ) class may open only one session per
// process. The warm-up leaves out the large rings, whose few costly
// sessions would make set-up time swing from seed to seed.
type ringStratum struct {
	lo, hi                int
	sessions, lambda      int
	warmups, warmupLambda int
}

var ringStrata = []ringStratum{
	{6, 30, 4200, 24, 400, 3},
	{31, 60, 590, 8, 60, 1},
	{61, 101, 84, 2, 0, 0},
}

// maxOpenerLambda bounds λ of the λK_n openers.
const maxOpenerLambda = 3

// Opener kinds; hub and random openers split the sessions that do not
// open with a λK_n 1:9 (a ring has only n hub specs).
const (
	openLambda = iota
	openHub
	openRandom
)

// lambdaPool holds, per stratum, the odd (n, λ) classes no session has
// opened yet; each class opens at most one session per process.
type lambdaPool map[ringStratum][][2]int

func (g *gen) coldRing(seq *Sequence, scale float64) error {
	pool := lambdaPool{}
	for _, st := range ringStrata {
		for n := st.lo | 1; n <= st.hi; n += 2 {
			for lam := 1; lam <= maxOpenerLambda; lam++ {
				pool[st] = append(pool[st], [2]int{n, lam})
			}
		}
	}
	for p, phase := range []*[]Unit{&seq.Warmup, &seq.Timed} {
		var units []Unit
		for _, st := range ringStrata {
			m, nl := scaled(st.sessions, scale, 1), scaled(st.lambda, scale, 0)
			if p == 0 {
				m, nl = st.warmups, st.warmupLambda
			}
			for _, sh := range shapes(st, m, min(nl, m), uint64(p)) {
				u, err := g.session(st, pool, sh)
				if err != nil {
					return err
				}
				units = append(units, u)
			}
		}
		shuffle(g.rng, units)
		*phase = units
	}
	return nil
}

// shape is the part of a cold-ring session that every seed shares: the
// ring size, opener kind, demand density, delta count and sweep. The
// seed draws the rest — which hub, which random demand, which λ, which
// deltas — and the session order, so the work of a run hardly depends
// on its seed.
type shape struct {
	n       int
	kind    int
	density float64
	steps   int
	k       int
	sample  int
	dual    bool
}

// shapes returns a stratum's m session shapes for one phase, nl of them
// λK_n openers: sizes evenly spread over the stratum, densities evenly
// spread over [0.05, 0.5], and fixed proportions of kinds, delta counts,
// sweeps and duals, paired under a constant seed.
func shapes(st ringStratum, m, nl int, phase uint64) []shape {
	r := rand.New(rand.NewPCG(uint64(st.lo), phase))
	kinds := append(slices.Repeat([]int{openLambda}, nl), spread(r, m-nl, 0, 0.1, 0.9)...)
	shuffle(r, kinds)
	steps := spread(r, m, 1, 1, 1)
	sims := spread(r, m, 0.45, 0.25, 0.30)
	duals := spread(r, m, 0.9, 0.1)
	samples := spread(r, m, 1, 1, 1)
	ns := make([]int, m)
	dens := make([]float64, m)
	for i := range ns {
		ns[i] = st.lo + int((float64(i)+0.5)*float64(st.hi-st.lo+1)/float64(m))
		dens[i] = 0.05 + 0.45*(float64(i)+0.5)/float64(m)
	}
	shuffle(r, ns)
	shuffle(r, dens)
	out := make([]shape, m)
	for i := range out {
		sh := shape{n: ns[i], kind: kinds[i], density: dens[i], steps: steps[i] + 1, k: 1, dual: duals[i] == 1}
		switch {
		case sims[i] == 1 && sh.n <= 48:
			sh.k = 2
		case sims[i] == 2:
			sh.k, sh.sample = 3, 64<<samples[i]
		}
		out[i] = sh
	}
	return out
}

// session builds one cold-ring session: a fresh opener, /plan/delta
// steps each valid against the previous child, and a /simulate of the
// opener.
func (g *gen) session(st ringStratum, lp lambdaPool, sh shape) (Unit, error) {
	it, sig, err := g.opener(st, lp, sh)
	if err != nil {
		return nil, err
	}
	u := Unit{{Kind: KindPlan, Item: it, Sig: sig, Dual: sh.dual}}
	in, err := instance.Parse(it.N, it.Spec)
	if err != nil {
		return nil, err
	}
	parent := sig
	var deltas []string
	for s := 0; s < sh.steps; s++ {
		d, child, childSig, err := g.delta(in)
		if err != nil {
			return nil, err
		}
		deltas = append(slices.Clone(deltas), d)
		u = append(u, Request{Kind: KindDelta, Item: it, Deltas: deltas, Parent: parent, Sig: childSig})
		in, parent = child, childSig
	}
	r := Request{Kind: KindSimulate, Item: it, Sig: sig, K: sh.k}
	if sh.k == 3 {
		r.Sample, r.SimSeed = sh.sample, g.rng.Int64N(1_000_000)
	}
	return append(u, r), nil
}

// opener draws a ring instance of the shape whose signature the process
// has not planned yet, moving to the next size of the stratum when the
// shape's size has none left.
func (g *gen) opener(st ringStratum, lp lambdaPool, sh shape) (Item, string, error) {
	if sh.kind == openLambda {
		if len(lp[st]) > 0 {
			return g.lambdaOpener(st, lp, sh.n)
		}
		// Long runs outlast the stratum's λK_n classes.
		sh.kind = openRandom
	}
	n := sh.n
	for try := 0; try < 2000; try++ {
		if try > 0 && try%50 == 0 {
			n = st.lo + (n-st.lo+1)%(st.hi-st.lo+1)
		}
		it := Item{n, fmt.Sprintf("hub:%d", g.rng.IntN(n))}
		// A ring has only n hub specs; long runs outlast small rings'.
		if sh.kind == openRandom || try >= 500 {
			// At least ~10 demanded pairs, so the deltas have room.
			d := max(sh.density, 10/float64(n*(n-1)/2))
			it.Spec = fmt.Sprintf("random:%.2f:%d", d, g.rng.Int64N(1<<40))
		}
		if in, err := instance.Parse(it.N, it.Spec); err != nil {
			return Item{}, "", err
		} else if in.Demand.M() < 4 || memoised(in) {
			continue
		}
		sig, ok, err := g.fresh(it)
		if err != nil {
			return Item{}, "", err
		}
		if ok {
			return it, sig, nil
		}
	}
	return Item{}, "", fmt.Errorf("no fresh opener left in n ∈ [%d, %d]", st.lo, st.hi)
}

// lambdaOpener takes the free odd (n, λ) class nearest to n. Odd n only:
// even-n K_n coverings are memoised beneath the cache for the whole
// process, so they would not be cold.
func (g *gen) lambdaOpener(st ringStratum, lp lambdaPool, n int) (Item, string, error) {
	free := lp[st]
	best, ties := -1, 0
	for i, c := range free {
		d := abs(c[0] - n)
		switch {
		case best < 0 || d < abs(free[best][0]-n):
			best, ties = i, 1
		case d == abs(free[best][0]-n):
			// Reservoir choice among equally near classes.
			ties++
			if g.rng.IntN(ties) == 0 {
				best = i
			}
		}
	}
	c := free[best]
	lp[st] = append(free[:best], free[best+1:]...)
	it := Item{c[0], "alltoall"}
	if c[1] > 1 {
		it.Spec = fmt.Sprintf("lambda:%d", c[1])
	}
	sig, ok, err := g.fresh(it)
	if err != nil || !ok {
		return Item{}, "", fmt.Errorf("λK_n opener %v not fresh: %v", it, err)
	}
	return it, sig, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// delta draws a delta valid against the instance whose child signature
// is new to the process.
func (g *gen) delta(in instance.Instance) (string, instance.Instance, string, error) {
	edges := in.Demand.Edges()
	n := in.N()
	for try := 0; try < 1000; try++ {
		var spec string
		switch g.rng.IntN(4) {
		case 0, 1: // fail and remove target a demanded pair
			if len(edges) == 0 {
				continue
			}
			e := edges[g.rng.IntN(len(edges))]
			spec = fmt.Sprintf("%s:%d:%d", []string{"fail", "remove"}[g.rng.IntN(2)], e.U, e.V)
		case 2:
			u, v := g.pair(n)
			spec = fmt.Sprintf("add:%d:%d", u, v)
		default:
			u, v := g.pair(n)
			m := (in.Demand.Mult(u, v) + 1 + g.rng.IntN(2)) % 3
			spec = fmt.Sprintf("set:%d:%d:%d", u, v, m)
		}
		d, err := instance.ParseDelta(spec)
		if err != nil {
			return "", instance.Instance{}, "", err
		}
		child, err := d.ApplyTo(in)
		if err != nil || child.Demand.M() < 2 || memoised(child) {
			continue
		}
		sig := sigOf(child)
		if g.used[sig] {
			continue
		}
		g.used[sig] = true
		return d.String(), child, sig, nil
	}
	return "", instance.Instance{}, "", fmt.Errorf("no fresh delta for %s", in.Name)
}

// memoised reports whether planning a ring demand would reach the even-n
// K_n covering that construct.EvenCtx memoises for the whole process — a
// λK_n at even n — so that planning it again would not be cold.
func memoised(in instance.Instance) bool {
	_, ok := construct.UniformLambda(in.Demand)
	return ok && in.N()%2 == 0
}

func (g *gen) pair(n int) (int, int) {
	u := g.rng.IntN(n)
	v := (u + 1 + g.rng.IntN(n-1)) % n
	return min(u, v), max(u, v)
}

// ---- cold-general ----

// cubicClass is a band of random cubic hosts with a fixed request count
// per 10 s of run.
type cubicClass struct {
	ns     []int
	timed  int
	warmup int
}

var cubicClasses = []cubicClass{
	// m ≥ 66 edges: past scc-exact's 64-edge limit, scc-kcycle/greedy
	// answer in well under a millisecond at about 40–50 % excess.
	{evens(44, 120), 1960, 300},
	// m ≤ 27: branch-and-bound completes with a proof. The warm-up takes
	// the cheap first three sizes only (see cubicWarmupSizes).
	{[]int{10, 12, 14, 16, 18}, 170, 24},
	// 39 ≤ m ≤ 60: branch-and-bound runs to its node limit, in 250–600
	// ms depending on the size. Sizes whose search time swings with the
	// host are left out, since they let the seed decide the run's tail:
	// 20–24, where some searches end early with a proof, and 32 and 42,
	// where the time to the limit ranges 200–770 ms from host to host.
	{[]int{26, 28, 30, 34, 36, 38, 40}, 36, 0},
}

// cubicWarmupSizes bounds the sizes a class warms up with: searches at
// n = 16 and 18 take 1–90 ms depending on the host, enough to make
// set-up time swing from seed to seed.
const cubicWarmupSizes = 3

func evens(lo, hi int) []int {
	var out []int
	for n := lo; n <= hi; n += 2 {
		out = append(out, n)
	}
	return out
}

// fixedPool is a class of fixed-family general specs, each planned at
// most once per process, with a timed count per 10 s of run.
type fixedPool struct {
	items []Item
	timed int
}

func fixedPools() []fixedPool {
	light := []Item{{10, "petersen"}, {18, "blanusa:1"}, {18, "blanusa:2"}, {12, "flower:3"}, {20, "flower:5"}}
	for k := 3; k <= 11; k++ {
		light = append(light, Item{2 * k, fmt.Sprintf("prism:%d", k)})
	}
	// Hosts past the search's reach, so each runs to the node limit and
	// costs about the same.
	heavy := []Item{{36, "flower:9"}}
	for k := 15; k <= 21; k++ {
		heavy = append(heavy, Item{2 * k, fmt.Sprintf("prism:%d", k)})
	}
	var fast []Item
	for k := 22; k <= 60; k++ {
		fast = append(fast, Item{2 * k, fmt.Sprintf("prism:%d", k)})
	}
	for k := 11; k <= 21; k += 2 {
		fast = append(fast, Item{4 * k, fmt.Sprintf("flower:%d", k)})
	}
	// The warm-up plans no fixed-family host: each may be planned once
	// per process, and the timed phase wants them cold.
	return []fixedPool{{light, 8}, {heavy, 2}, {fast, 16}}
}

func (g *gen) coldGeneral(seq *Sequence, scale float64) error {
	pools := fixedPools()
	for _, p := range pools {
		g.rng.Shuffle(len(p.items), func(i, j int) { p.items[i], p.items[j] = p.items[j], p.items[i] })
	}
	for _, warm := range []bool{true, false} {
		var units []Unit
		add := func(it Item) error {
			sig, ok, err := g.fresh(it)
			if err != nil {
				return err
			}
			if ok {
				units = append(units, Unit{{Kind: KindPlan, Item: it, Sig: sig}})
			}
			return nil
		}
		for _, c := range cubicClasses {
			m := scaled(c.timed, scale, 0)
			if warm {
				m = c.warmup
			}
			// Sizes cycle through the class, so each run has the same
			// size mix; only the host seeds vary.
			sizes := c.ns
			if warm {
				sizes = sizes[:min(len(sizes), cubicWarmupSizes)]
			}
			for i := 0; i < m; i++ {
				if err := add(Item{sizes[i%len(sizes)], fmt.Sprintf("cubic:%d", g.rng.Int64N(1<<40))}); err != nil {
					return err
				}
			}
		}
		for i := range pools {
			if warm {
				break
			}
			m := min(scaled(pools[i].timed, scale, 1), len(pools[i].items))
			for _, it := range pools[i].items[:m] {
				if err := add(it); err != nil {
					return err
				}
			}
		}
		g.rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
		if warm {
			seq.Warmup = units
		} else {
			seq.Timed = units
		}
	}
	return nil
}

// sigOf is the cache signature of an instance under default options.
func sigOf(in instance.Instance) string { return cache.Signature(in, cache.Options{}) }
