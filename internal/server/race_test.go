//go:build race

package server

func init() { raceAllocs = 1 }
