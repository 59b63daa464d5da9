package server

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/cyclecover/cyclecover/internal/instance"
)

// ewmaAlpha weights the newest latency sample in the moving averages the
// admission and degradation layers keep. 0.3 reacts to a load shift
// within a few requests without letting one outlier dominate.
const ewmaAlpha = 0.3

// ewma is an exponentially weighted moving average of durations, held in
// seconds. The zero value means "no samples yet". Not self-locking:
// callers guard it with their own mutex.
type ewma struct {
	v float64 // seconds; 0 = no samples
}

func (e *ewma) observe(d time.Duration) {
	s := d.Seconds()
	if e.v == 0 {
		e.v = s
		return
	}
	e.v = ewmaAlpha*s + (1-ewmaAlpha)*e.v
}

func (e *ewma) value() (time.Duration, bool) {
	if e.v == 0 {
		return 0, false
	}
	return time.Duration(e.v * float64(time.Second)), true
}

// retryAfterBounds clamp the Retry-After hint a shed response carries:
// at least one second (the header's resolution), at most a minute so a
// transient spike never parks clients for longer than the overload
// plausibly lasts.
const (
	minRetryAfter = 1
	maxRetryAfter = 60
)

// admission is the server's load-shedding gate, applied by the route
// wrapper to every work route. Each work route admits at most
// maxInflight concurrent requests, and nothing is admitted while
// maxQueue or more submitters wait for a pool worker; past either limit
// the request is shed with a structured 429 whose Retry-After hint
// derives from the EWMA of observed job latency. A zero limit disables
// that check, so the zero-value Config keeps admission off entirely and
// embedded users see no behaviour change.
type admission struct {
	maxInflight int
	maxQueue    int
	pool        *Pool

	// mu guards latency and every route's inflight and shed counts.
	mu      sync.Mutex
	latency ewma // full job latency (queue wait + construction)
}

func newAdmission(maxInflight, maxQueue int, pool *Pool) *admission {
	return &admission{maxInflight: maxInflight, maxQueue: maxQueue, pool: pool}
}

// acquire admits one request on rt or sheds it. An admitted request must
// be released; a shed one gets ok=false and the Retry-After seconds to
// hint.
func (a *admission) acquire(rt *route) (retryAfter int, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.maxInflight > 0 && rt.inflight >= a.maxInflight ||
		a.maxQueue > 0 && a.pool.QueueDepth() >= a.maxQueue {
		rt.shed++
		return a.retryAfterLocked(), false
	}
	rt.inflight++
	return 0, true
}

// release ends a request that acquire admitted on rt.
func (a *admission) release(rt *route) {
	a.mu.Lock()
	rt.inflight--
	a.mu.Unlock()
}

// checkQueue is the queue-depth half of acquire alone, used per batch
// item: a batch already holds its route's in-flight slot, but each item
// is a separate pool submission that must not pile onto a saturated
// queue.
func (a *admission) checkQueue(rt *route) (retryAfter int, ok bool) {
	if a.maxQueue <= 0 || a.pool.QueueDepth() < a.maxQueue {
		return 0, true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	rt.shed++
	return a.retryAfterLocked(), false
}

// observe feeds one completed job's latency into the Retry-After
// estimate.
func (a *admission) observe(d time.Duration) {
	a.mu.Lock()
	a.latency.observe(d)
	a.mu.Unlock()
}

// retryAfterLocked derives the Retry-After hint from observed job
// latency: one latency's worth of backoff, clamped to
// [minRetryAfter, maxRetryAfter]. With no samples yet it hints the
// minimum. Caller holds a.mu.
func (a *admission) retryAfterLocked() int {
	lat, ok := a.latency.value()
	if !ok {
		return minRetryAfter
	}
	sec := int(math.Ceil(lat.Seconds()))
	if sec < minRetryAfter {
		return minRetryAfter
	}
	if sec > maxRetryAfter {
		return maxRetryAfter
	}
	return sec
}

// shedBody is the JSON shape of a 429: the service is past an admission
// limit and the client should retry after the hinted delay (also in the
// Retry-After header).
type shedBody struct {
	Error      string `json:"error"`
	RetryAfter string `json:"retryAfter"`
}

func writeShed(w http.ResponseWriter, endpoint string, retryAfter int) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	writeJSON(w, http.StatusTooManyRequests, shedBody{
		Error:      fmt.Sprintf("%s over admission limit: request shed", endpoint),
		RetryAfter: fmt.Sprintf("%ds", retryAfter),
	})
}

// Cost-model modes: what kind of construction a measured duration
// belongs to. The degrade decision compares the remaining deadline
// budget against the full-pipeline estimate, and falls through to
// stale serving when even the degraded estimate does not fit.
const (
	modeFull     = "full"
	modeDegraded = "degraded"
)

// costModel remembers how long constructions take, as an EWMA per
// (mode, host kind, n) bucket. Buckets deliberately ignore the demand
// spec: the model only has to predict "will this blow the deadline",
// and keying by ring size keeps the map bounded by MaxRingSize instead
// of growing with every distinct demand string an attacker sends.
type costModel struct {
	mu      sync.Mutex
	buckets map[bucketKey]*ewma
}

// bucketKey names one cost-model bucket: mode, host kind and n.
type bucketKey struct {
	mode    string
	general bool
	n       int
}

func newCostModel() *costModel {
	return &costModel{buckets: make(map[bucketKey]*ewma)}
}

func costBucket(mode string, in instance.Instance) bucketKey {
	return bucketKey{mode: mode, general: in.IsGeneral(), n: in.N()}
}

// observe feeds one measured construction duration into its bucket.
func (c *costModel) observe(mode string, in instance.Instance, d time.Duration) {
	key := costBucket(mode, in)
	c.mu.Lock()
	e := c.buckets[key]
	if e == nil {
		e = &ewma{}
		c.buckets[key] = e
	}
	e.observe(d)
	c.mu.Unlock()
}

// estimate predicts the construction cost for in under mode. ok=false
// means no sample has been observed for the bucket yet — callers treat
// an unknown cost as "assume it fits" so a cold server never degrades
// speculatively.
func (c *costModel) estimate(mode string, in instance.Instance) (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.buckets[costBucket(mode, in)]
	if e == nil {
		return 0, false
	}
	return e.value()
}
