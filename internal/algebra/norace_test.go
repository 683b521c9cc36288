//go:build !race

package algebra

const raceEnabled = false
