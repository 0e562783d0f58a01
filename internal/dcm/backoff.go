package dcm

import (
	"math/rand"
	"sync"
	"time"
)

// BackoffPolicy is the retry schedule for soft host failures within one
// pass: exponential doubling from Base, capped at Max, with subtractive
// jitter. The delay before retry n (n >= 1) is drawn uniformly from
// [d*(1-Jitter), d] where d = min(Base << (n-1), Max), so retries to
// many failing hosts spread out instead of synchronizing. The attempt
// counter is per host-update: a successful push resets the next
// failure's schedule back to Base.
type BackoffPolicy struct {
	Base   time.Duration
	Max    time.Duration
	Jitter float64 // fraction of the delay randomized away, in [0, 1]
}

// DefaultBackoff waits 250ms, 500ms, 1s, ... capped at 5s, each
// shortened by up to half.
var DefaultBackoff = BackoffPolicy{
	Base:   250 * time.Millisecond,
	Max:    5 * time.Second,
	Jitter: 0.5,
}

// zero reports whether the policy is unset (use DefaultBackoff).
func (p BackoffPolicy) zero() bool {
	return p.Base == 0 && p.Max == 0 && p.Jitter == 0
}

// Delay computes the wait before retry attempt (1-based). rnd supplies
// the jitter; nil disables jitter.
func (p BackoffPolicy) Delay(attempt int, rnd *rand.Rand) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := p.Base
	for i := 1; i < attempt; i++ {
		if p.Max > 0 && d >= p.Max {
			break
		}
		d *= 2
	}
	if p.Max > 0 && d > p.Max {
		d = p.Max
	}
	if p.Jitter > 0 && rnd != nil {
		d -= time.Duration(p.Jitter * rnd.Float64() * float64(d))
	}
	return d
}

// lockedRand serializes a shared jitter source across the host workers;
// math/rand.Rand itself is not safe for concurrent use.
type lockedRand struct {
	mu  sync.Mutex
	rnd *rand.Rand
}

func newLockedRand() *lockedRand {
	return &lockedRand{rnd: rand.New(rand.NewSource(1))}
}

// delay draws one jittered backoff delay under the lock.
func (l *lockedRand) delay(p BackoffPolicy, attempt int) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return p.Delay(attempt, l.rnd)
}
