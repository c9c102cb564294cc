// Package backoff implements the deployment path's shared retry schedule:
// jittered exponential backoff between the attempts of one exchange.
//
// The paper's controller must keep making safe decisions while the very
// network it manages drops and delays its own control traffic (§5–§6);
// fixed-cadence retransmits synchronize across agents and hammer a
// recovering controller, so every retrying client in this repository
// (ctlplane reports, snmplite polls) spaces its attempts with Delay. The
// schedule is fixed; a client chooses only how many attempts to make.
//
// Determinism contract: jitter is drawn from an injected `rngutil`
// substream, never from global randomness, so a retry schedule is a pure
// function of (seed, retry index) and chaos-harness runs replay
// byte-for-byte. The package is registered in the `nodeterminism`
// analyzer's config (DESIGN.md §8).
package backoff

import (
	"time"

	"corropt/internal/rngutil"
)

// The schedule: base before the first retry, doubled per further retry and
// capped at ceiling, then scaled by a uniform draw in [1−jitter, 1+jitter].
const (
	base    = 10 * time.Millisecond
	ceiling = 1 * time.Second
	jitter  = 0.2
)

// Delay returns the pause before retry number `retry` (0-based: Delay(0)
// precedes the second attempt). rng supplies the jitter draw; a nil rng
// disables jitter.
func Delay(retry int, rng *rngutil.Source) time.Duration {
	d := float64(base)
	for i := 0; i < retry && d < float64(ceiling); i++ {
		d *= 2
	}
	d = min(d, float64(ceiling))
	if rng != nil {
		// Uniform in [d(1−j), d(1+j)] from one draw.
		d *= 1 - jitter + 2*jitter*rng.Float64()
	}
	return time.Duration(d)
}
