package core

import (
	"sync"
	"time"
)

// Clock abstracts time for the protocol so simulations can drive it with
// virtual time. The paper's timestamp scheme needs only loose
// synchronisation between principals (Section 5.3).
type Clock interface {
	Now() time.Time
}

// RealClock reads the system clock.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// SimClock is a manually advanced clock for tests and simulations. It is
// safe for concurrent use.
type SimClock struct {
	mu sync.RWMutex
	t  time.Time
}

// NewSimClock creates a simulated clock starting at t.
func NewSimClock(t time.Time) *SimClock { return &SimClock{t: t} }

// Now implements Clock.
func (c *SimClock) Now() time.Time {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.t
}

// Advance moves the clock forward by d.
func (c *SimClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// Set jumps the clock to t.
func (c *SimClock) Set(t time.Time) {
	c.mu.Lock()
	c.t = t
	c.mu.Unlock()
}

// TimestampEpoch is the zero point of the FBS timestamp: 00:00 GMT
// January 1, 1996, per Section 7.2. With 32 bits of minutes the field
// wraps only after roughly 8000 years.
var TimestampEpoch = time.Date(1996, time.January, 1, 0, 0, 0, 0, time.UTC)

// timestampEpochUnix caches the epoch in Unix seconds. All timestamp
// arithmetic goes through int64 seconds rather than time.Duration: 2^32
// minutes is ~8000 years, far past Duration's ~292-year range, so
// Duration-based conversions would silently overflow near the wrap.
var timestampEpochUnix = TimestampEpoch.Unix()

// Timestamp is the FBS header time value: minutes since TimestampEpoch,
// modulo 2^32. Minute resolution is deliberate — the timestamp is only a
// coarse replay guard (Section 5.3).
type Timestamp uint32

// TimestampOf converts a wall-clock time to an FBS timestamp. Times past
// the 2^32-minute wrap reduce modularly, matching Fresh's comparison;
// times before the epoch clamp to 0 (such a clock is simply broken).
func TimestampOf(t time.Time) Timestamp {
	m := floorDiv(t.Unix()-timestampEpochUnix, 60)
	if m < 0 {
		return 0
	}
	return Timestamp(m)
}

// Time converts the timestamp back to the start of its minute in the
// first 2^32-minute era. The wire field cannot say which era it belongs
// to; Fresh resolves that ambiguity relative to the receiver's clock.
func (ts Timestamp) Time() time.Time {
	return time.Unix(timestampEpochUnix+int64(ts)*60, 0).UTC()
}

// Fresh reports whether the timestamp falls within a sliding window of
// +-window centred on now (Section 5.2, step R3). The window accounts for
// transmission delay and clock skew between principals.
//
// The 32-bit minute counter is compared modularly: the sender's counter
// is placed at the representative nearest the receiver's own counter, so
// a sender just past the wrap boundary is minutes away from a receiver
// just before it — not ~8000 years stale, and never falsely fresh a
// whole era later.
func (ts Timestamp) Fresh(now time.Time, window time.Duration) bool {
	d := ts.age(now)
	if d < 0 {
		d = -d
		if d < 0 {
			// -minDuration overflows back to itself; that far apart is
			// certainly stale.
			return false
		}
	}
	return d <= window
}

// expired reports whether the timestamp is more than window in the
// past at now: the point from which Fresh can never again accept it
// while the clock runs forward. A timestamp ahead of now is not
// expired.
func (ts Timestamp) expired(now time.Time, window time.Duration) bool {
	return ts.age(now) > window
}

// age is how far now is past the start of the timestamp's minute,
// negative for a timestamp ahead of now, with the sender's counter
// placed at the representative nearest the receiver's.
func (ts Timestamp) age(now time.Time) time.Duration {
	nowMin := floorDiv(now.Unix()-timestampEpochUnix, 60)
	// Signed modular distance in minutes, in [-2^31, 2^31): how far the
	// sender's counter sits from the receiver's, wrap-aware.
	delta := int64(int32(uint32(ts) - uint32(nowMin)))
	sender := time.Unix(timestampEpochUnix+(nowMin+delta)*60, 0)
	return now.Sub(sender) // saturates at ±292y for far-apart values, still > window
}

// floorDiv divides rounding toward negative infinity (Go's / truncates
// toward zero), so pre-epoch instants land in the right minute bucket.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
