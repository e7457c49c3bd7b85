//go:build !race

package estimate

const raceEnabled = false
