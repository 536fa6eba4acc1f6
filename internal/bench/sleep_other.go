//go:build !linux

package bench

import "time"

func fineSleep(d time.Duration) { time.Sleep(d) }
