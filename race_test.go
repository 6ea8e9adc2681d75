//go:build race

package hdr4me

const raceEnabled = true
