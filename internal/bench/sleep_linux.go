package bench

import (
	"syscall"
	"time"
)

// fineSleep blocks the calling thread in nanosleep(2). A Go timer on an
// otherwise idle process fires 0.1–1.1 ms late (the runtime waits in
// epoll with a millisecond timeout), which would add a median 0.65 ms to
// every open-loop latency; nanosleep is late by about 0.1 ms.
func fineSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early EINTR return only makes the send early by less than d
}
