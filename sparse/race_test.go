//go:build race

package sparse

// raceEnabled reports a race-detector build, under which sync.Pool drops
// a random share of returned buffers, so arena-backed code allocates
// nondeterministically.
const raceEnabled = true
