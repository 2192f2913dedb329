package obs

import "time"

// Clock supplies wall timestamps. Injecting one makes time-stamped
// artifacts (campaign event journals, fleet reports)
// byte-reproducible: two identical runs that share a clock emit
// identical timestamps.
type Clock func() time.Time

// WallClock reads the operating-system clock. It is the repo's single
// sanctioned wall-clock read (memlint's determinism check allowlists
// exactly this function); every other component takes a Clock — or a
// simulated-seconds func — from its caller.
func WallClock() time.Time { return time.Now() }
