//go:build race

package estimate

const raceEnabled = true
