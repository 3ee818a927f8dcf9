//go:build race

package serve

// raceEnabled reports whether this test binary runs under the race
// detector, where sync.Pool deliberately drops a fraction of Put items —
// which makes per-request allocation counts non-deterministic.
const raceEnabled = true
