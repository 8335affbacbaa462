//go:build !race

package transport_test

// raceEnabled reports that this binary was built with -race; see
// race_test.go.
const raceEnabled = false
