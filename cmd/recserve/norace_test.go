//go:build !race

package main

// See race_test.go.
const raceEnabled = false
