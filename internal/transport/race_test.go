//go:build race

package transport_test

// raceEnabled reports that this binary was built with -race. The
// degenerate battery runs its solves on one goroutine, so the race
// detector finds nothing in it and only multiplies its ten seconds
// past two minutes; it is skipped under -race.
const raceEnabled = true
