//go:build race

package forum

// The race detector makes sync.Pool drop a quarter of what is put back, so
// a pooled allocation ceiling does not hold under it.
func init() { raceEnabled = true }
