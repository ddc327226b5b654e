// Package live plants a replaysafe violation.
package live

import "time"

// Deliver hands a frame to its actor. replay:recorded
func Deliver() int64 {
	return time.Now().UnixNano()
}
