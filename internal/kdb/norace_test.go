//go:build !race

package kdb

const raceEnabled = false
