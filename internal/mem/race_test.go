//go:build race

package mem

// raceEnabled reports a -race build, whose instrumentation allocates
// on paths that otherwise allocate nothing.
const raceEnabled = true
