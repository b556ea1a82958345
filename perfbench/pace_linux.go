package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps an open-loop sender until each request is due. The Go
// runtime's timers wake up to a millisecond late on an idle Linux
// process, which would show up as latency "from when the request was
// due"; a blocking nanosleep is precise but holds the sender's processor
// while it sleeps, stalling the server's goroutines in the same process.
// A timerfd read through the runtime's network poller is both: the
// sender parks like any goroutine waiting on a socket, and wakes when the
// kernel timer fires.
type pacer struct {
	fd  uintptr // for timerfd_settime; File.Fd would make reads block
	f   *os.File
	buf [8]byte
}

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

func (p *pacer) sleepUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))} // interval, value
	if _, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	// The read returns the expiration count, which is one: the timer is
	// armed once and does not repeat.
	if _, err := p.f.Read(p.buf[:]); err != nil {
		return fmt.Errorf("timerfd read: %w", err)
	}
	return nil
}

func (p *pacer) close() error { return p.f.Close() }
