//go:build race

package algebra

// raceEnabled reports a -race build, where sync.Pool drops pooled
// buffers at random and allocation counts stop being deterministic.
const raceEnabled = true
