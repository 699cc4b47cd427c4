//go:build race

package server

// raceEnabled reports a -race build: the race detector makes sync.Pool
// drop a share of its puts at random, so allocation pins on pooled
// buffers hold only without it.
const raceEnabled = true
