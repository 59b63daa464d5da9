package main

// The output check, run after the timed phase so it costs the timed
// phase nothing. Every distinct answer is decoded once and judged against
// the instance the generator asked for — for a delta step, the opener's
// demand with every delta so far applied — by the independent verifiers
// (cover.Verify, cover.VerifyGeneral), and every claim the answer makes
// (size, length, bounds, optimality, WDM facts) is recomputed from its
// cycles. Any failure counts in the error rate.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/instance"
	"github.com/cyclecover/cyclecover/internal/ring"
	"github.com/cyclecover/cyclecover/internal/wdm"
)

// planBody is the JSON of a /plan answer, and the plan part of a
// /plan/delta answer.
type planBody struct {
	Signature     string  `json:"signature"`
	N             int     `json:"n"`
	Size          int     `json:"size"`
	Rho           int     `json:"rho"`
	Length        int     `json:"length"`
	SCCLowerBound int     `json:"sccLowerBound"`
	Optimal       bool    `json:"optimal"`
	Degraded      bool    `json:"degraded"`
	Method        string  `json:"method"`
	Cycles        [][]int `json:"cycles"`
	Wavelengths   int     `json:"wavelengths"`
	ADMs          int     `json:"adms"`
	MaxTransit    int     `json:"maxTransit"`
	Cost          float64 `json:"cost"`
	CacheHit      bool    `json:"cacheHit"`
	Parent        string  `json:"parent"`
	Delta         string  `json:"delta"`
	Repaired      bool    `json:"repaired"`
}

type batchLine struct {
	Index int       `json:"index"`
	Plan  *planBody `json:"plan"`
	Error string    `json:"error"`
}

type verifyBody struct {
	Valid         bool   `json:"valid"`
	Size          int    `json:"size"`
	Rho           int    `json:"rho"`
	Length        int    `json:"length"`
	SCCLowerBound int    `json:"sccLowerBound"`
	Optimal       bool   `json:"optimal"`
	Error         string `json:"error"`
}

type simBody struct {
	Signature   string `json:"signature"`
	N           int    `json:"n"`
	Subnets     int    `json:"subnets"`
	Wavelengths int    `json:"wavelengths"`
	Sweep       struct {
		K         int   `json:"k"`
		Scenarios int64 `json:"scenarios"`
		Evaluated int   `json:"evaluated"`
		Complete  bool  `json:"complete"`
	} `json:"sweep"`
}

// verdict is the judgement of one distinct plan answer.
type verdict struct {
	err      error
	cost, lb int64 // the objective (cycles or length) and its lower bound
}

// checker judges the records of a run.
type checker struct {
	reqs      []*Request
	bodies    map[uint64][]byte
	preloaded map[Item]*planBody // warm: the plans /verify sends back
	insts     map[string]instance.Instance
	plans     map[string]verdict
	lines     map[uint64]*batchLine
}

// outcome sums a run's check.
type outcome struct {
	attempted, failed int
	excess, lb        int64 // Σ(cost − lb), Σ lb over plan answers
	failures          map[string]int
}

func (o outcome) coverExcess() float64 {
	if o.lb == 0 {
		return 0
	}
	return float64(o.excess) / float64(o.lb)
}

func newChecker(seq *Sequence, bodies map[uint64][]byte, preloaded map[Item]*planBody) *checker {
	return &checker{
		reqs:      seq.Requests(),
		bodies:    bodies,
		preloaded: preloaded,
		insts:     map[string]instance.Instance{},
		plans:     map[string]verdict{},
		lines:     map[uint64]*batchLine{},
	}
}

// run checks every record; a record fails once, at its first problem.
func (c *checker) run(recs []record) outcome {
	o := outcome{attempted: len(recs), failures: map[string]int{}}
	for _, rec := range recs {
		if err := c.record(&o, rec); err != nil {
			o.failed++
			msg := err.Error()
			if len(msg) > 160 {
				msg = msg[:160] + "…"
			}
			o.failures[msg]++
		}
	}
	return o
}

func (c *checker) record(o *outcome, rec record) error {
	r := c.reqs[rec.id]
	if rec.status == 0 {
		return fmt.Errorf("%s %v: transport error", r.Kind, r.Item)
	}
	body := c.bodies[rec.hashes[0]]
	if rec.status != 200 {
		return fmt.Errorf("%s %v: status %d: %s", r.Kind, r.Item, rec.status, bytes.TrimSpace(body))
	}
	switch r.Kind {
	case KindPlan, KindDelta:
		return c.add(o, r, c.judge(r, r.Item, rec.hashes[0], func() (*planBody, error) {
			p := &planBody{}
			return p, json.Unmarshal(body, p)
		}))
	case KindBatch:
		seen := make([]bool, len(r.Items))
		var vs []verdict
		for _, h := range rec.hashes {
			line, err := c.line(h)
			if err != nil || line.Index < 0 || line.Index >= len(r.Items) || seen[line.Index] {
				return fmt.Errorf("batch: bad line %.80s", c.bodies[h])
			}
			seen[line.Index] = true
			it := r.Items[line.Index]
			if line.Plan == nil {
				return fmt.Errorf("batch item %v: %s", it, line.Error)
			}
			in, err := c.instance(it, nil)
			if err != nil {
				return fmt.Errorf("batch item %v: %v", it, err)
			}
			v := c.judge(&Request{Kind: KindPlan, Item: it, Sig: sigOf(in)}, it, h, func() (*planBody, error) { return line.Plan, nil })
			if v.err != nil {
				return fmt.Errorf("batch item %v: %v", it, v.err)
			}
			vs = append(vs, v)
		}
		for i, ok := range seen {
			if !ok {
				return fmt.Errorf("batch: no answer for item %d (%v)", i, r.Items[i])
			}
		}
		for _, v := range vs {
			c.add(o, r, v)
		}
		return nil
	case KindVerify:
		if err := c.verifyAnswer(r.Item, body); err != nil {
			return fmt.Errorf("verify %v: %v", r.Item, err)
		}
	case KindSimulate:
		if err := c.simulateAnswer(r, body); err != nil {
			return fmt.Errorf("simulate %v: %v", r.Item, err)
		}
	}
	return nil
}

// line decodes a batch answer line, memoised.
func (c *checker) line(h uint64) (*batchLine, error) {
	if l, ok := c.lines[h]; ok {
		return l, nil
	}
	l := &batchLine{}
	if err := json.Unmarshal(c.bodies[h], l); err != nil {
		return nil, err
	}
	c.lines[h] = l
	return l, nil
}

// add counts a judged plan answer into the cover excess.
func (c *checker) add(o *outcome, r *Request, v verdict) error {
	if v.err != nil {
		return fmt.Errorf("%s %v %v: %v", r.Kind, r.Item, r.Deltas, v.err)
	}
	o.excess += v.cost - v.lb
	o.lb += v.lb
	return nil
}

// instance rebuilds the instance a request asked for, memoised.
func (c *checker) instance(it Item, deltas []string) (instance.Instance, error) {
	key := it.String() + "|" + strings.Join(deltas, ",")
	if in, ok := c.insts[key]; ok {
		return in, nil
	}
	in, err := instanceOf(it, deltas)
	if err != nil {
		return in, err
	}
	c.insts[key] = in
	return in, nil
}

// instanceOf parses an item and applies the deltas in order.
func instanceOf(it Item, deltas []string) (instance.Instance, error) {
	in, err := instance.Parse(it.N, it.Spec)
	if err != nil {
		return in, err
	}
	for _, spec := range deltas {
		d, err := instance.ParseDelta(spec)
		if err != nil {
			return in, err
		}
		if in, err = d.ApplyTo(in); err != nil {
			return in, err
		}
	}
	return in, nil
}

// judge verifies the plan of answer h against the instance r asked for
// (it, with r's deltas applied), memoised per (instance, answer); decode
// yields the plan on a miss.
func (c *checker) judge(r *Request, it Item, h uint64, decode func() (*planBody, error)) verdict {
	key := fmt.Sprintf("%v|%v|%x", it, r.Deltas, h)
	if v, ok := c.plans[key]; ok {
		return v
	}
	var v verdict
	p, err := decode()
	if err == nil {
		var in instance.Instance
		if in, err = c.instance(it, r.Deltas); err == nil {
			v = judgePlan(in, r, p)
		}
	}
	if err != nil {
		v.err = err
	}
	c.plans[key] = v
	return v
}

// judgePlan verifies a plan against its instance and recomputes every
// claim it makes.
func judgePlan(in instance.Instance, r *Request, p *planBody) verdict {
	fail := func(format string, args ...any) verdict { return verdict{err: fmt.Errorf(format, args...)} }
	switch {
	case p.Signature != r.Sig:
		return fail("signature %q, want %q", p.Signature, r.Sig)
	case p.N != in.N():
		return fail("n = %d, want %d", p.N, in.N())
	case p.Degraded:
		return fail("degraded answer (method %s)", p.Method)
	case p.Size != len(p.Cycles):
		return fail("size %d but %d cycles", p.Size, len(p.Cycles))
	}
	if r.Kind == KindDelta {
		if p.Parent != r.Parent || p.Delta != r.Deltas[len(r.Deltas)-1] {
			return fail("delta provenance %q + %q, want %q + %q", p.Parent, p.Delta, r.Parent, r.Deltas[len(r.Deltas)-1])
		}
	}
	if in.IsGeneral() {
		cv := cover.NewGeneralCovering(in.N())
		for _, walk := range p.Cycles {
			cyc, err := cover.WalkCycle(walk)
			if err != nil {
				return fail("cycle %v: %v", walk, err)
			}
			cv.Cycles = append(cv.Cycles, cyc)
		}
		if err := cover.VerifyGeneral(cv, in.Host); err != nil {
			return fail("invalid cover: %v", err)
		}
		lb := cover.SCCLowerBound(in.Host)
		switch {
		case p.Length != cv.TotalLength():
			return fail("length %d, cycles sum to %d", p.Length, cv.TotalLength())
		case p.SCCLowerBound != lb:
			return fail("sccLowerBound %d, want %d", p.SCCLowerBound, lb)
		case p.Length < lb:
			return fail("length %d below the lower bound %d", p.Length, lb)
		case p.Rho != 0 || p.Wavelengths != 0:
			return fail("ring facts on a general plan")
		}
		// An optimality claim above the bound rests on the exact search's
		// proof, which no cheap check can redo; it is accepted as stated.
		return verdict{cost: int64(p.Length), lb: int64(lb)}
	}
	rg, err := ring.New(in.N())
	if err != nil {
		return fail("%v", err)
	}
	cv, err := cover.FromVertexSets(rg, p.Cycles)
	if err != nil {
		return fail("cycles: %v", err)
	}
	if err := cover.Verify(cv, in.Demand); err != nil {
		return fail("invalid covering: %v", err)
	}
	n := in.N()
	wantRho := 0
	if allToAll(in) {
		wantRho = cover.Rho(n)
	}
	switch {
	case p.Rho != wantRho:
		return fail("rho %d, want %d", p.Rho, wantRho)
	case p.Optimal && !(wantRho > 0 && p.Size == wantRho):
		return fail("optimal claimed for %d cycles, provable only at ρ(%d) = %d on K_n", p.Size, n, cover.Rho(n))
	}
	if err := checkWDM(cv, p); err != nil {
		return fail("%v", err)
	}
	lb := cover.InstanceLowerBound(rg, in.Demand)
	if p.Size < lb {
		return fail("%d cycles below the lower bound %d", p.Size, lb)
	}
	return verdict{cost: int64(p.Size), lb: int64(lb)}
}

// checkWDM recomputes a ring plan's WDM facts from its cycles: two
// wavelengths per cycle, one ADM per cycle vertex, transit where a cycle
// skips a node, and the default cost model over those counts.
func checkWDM(cv *cover.Covering, p *planBody) error {
	n := cv.Ring.N()
	w := 2 * cv.Size()
	adms := cv.TotalVertices()
	maxTransit, totalTransit := 0, 0
	for v := 0; v < n; v++ {
		t := 0
		for _, c := range cv.Cycles {
			if !c.Contains(v) {
				t += 2
			}
		}
		maxTransit = max(maxTransit, t)
		totalTransit += t
	}
	m := wdm.DefaultCostModel
	cost := m.PerWavelength*float64(w) + m.PerADM*float64(adms) + m.PerTransit*float64(totalTransit) + m.PerLinkChan*float64(w*cv.Ring.Links())
	switch {
	case p.Wavelengths != w:
		return fmt.Errorf("wavelengths %d, want %d", p.Wavelengths, w)
	case p.ADMs != adms:
		return fmt.Errorf("adms %d, want %d", p.ADMs, adms)
	case p.MaxTransit != maxTransit:
		return fmt.Errorf("maxTransit %d, want %d", p.MaxTransit, maxTransit)
	case math.Abs(p.Cost-cost) > 1e-9*math.Max(1, cost):
		return fmt.Errorf("cost %g, want %g", p.Cost, cost)
	}
	return nil
}

// verifyAnswer checks a /verify verdict on a plan the daemon returned:
// it must accept it and restate the plan's objective and bounds.
func (c *checker) verifyAnswer(it Item, body []byte) error {
	var v verifyBody
	if err := json.Unmarshal(body, &v); err != nil {
		return err
	}
	p, ok := c.preloaded[it]
	if !ok {
		return fmt.Errorf("no preloaded plan")
	}
	if !v.Valid || v.Size != p.Size {
		return fmt.Errorf("valid=%v size=%d for a %d-cycle plan: %s", v.Valid, v.Size, p.Size, v.Error)
	}
	if p.SCCLowerBound > 0 { // general host
		if v.Length != p.Length || v.SCCLowerBound != p.SCCLowerBound || v.Optimal != (v.Length == v.SCCLowerBound) {
			return fmt.Errorf("length %d / bound %d / optimal %v, plan says %d / %d", v.Length, v.SCCLowerBound, v.Optimal, p.Length, p.SCCLowerBound)
		}
		return nil
	}
	if v.Rho != p.Rho || v.Optimal != (v.Rho > 0 && v.Size == v.Rho) {
		return fmt.Errorf("rho %d / optimal %v for a %d-cycle plan with rho %d", v.Rho, v.Optimal, p.Size, p.Rho)
	}
	return nil
}

// simulateAnswer checks a /simulate answer's identity and that the sweep
// evaluated the scenario set asked for: all k-subsets of the n links for
// k ≤ 2 (a complete sweep), the sample for k = 3.
func (c *checker) simulateAnswer(r *Request, body []byte) error {
	var s simBody
	if err := json.Unmarshal(body, &s); err != nil {
		return err
	}
	n := r.Item.N
	want := n
	switch r.K {
	case 2:
		want = n * (n - 1) / 2
	case 3:
		want = min(r.Sample, n*(n-1)*(n-2)/6)
	}
	switch {
	case s.Signature != r.Sig || s.N != n:
		return fmt.Errorf("answered %q n=%d, want %q", s.Signature, s.N, r.Sig)
	case s.Wavelengths != 2*s.Subnets || s.Subnets == 0:
		return fmt.Errorf("%d wavelengths for %d subnets", s.Wavelengths, s.Subnets)
	case s.Sweep.K != r.K || s.Sweep.Evaluated != want || (r.K <= 2 && !s.Sweep.Complete):
		return fmt.Errorf("sweep k=%d evaluated %d (complete=%v), want k=%d, %d", s.Sweep.K, s.Sweep.Evaluated, s.Sweep.Complete, r.K, want)
	}
	return nil
}
