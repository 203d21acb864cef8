//go:build race

package engine

func init() { racePoolDrops = true }
