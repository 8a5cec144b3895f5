package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// alarm is a one-shot monotonic timer on a timerfd, waited for through the
// netpoller. The benchmark uses it wherever it has to wait for a point in
// time itself — pacing the open-phase schedule and injecting the ledger
// delay — because a Go timer in a mostly idle process fires up to a
// millisecond late (the scheduler polls with millisecond granularity), and
// how idle the process is depends on the load: with time.Sleep the injected
// 200 µs read as 250 µs under a closed loop and 1.1 ms under an open one,
// and run-to-run throughput was bimodal. A timerfd wakes the parked
// goroutine within ~20 µs at any load and holds no scheduler resource
// while it waits.
type alarm struct {
	fd uintptr
	f  *os.File // the same descriptor, registered with the netpoller
}

type itimerspec struct{ Interval, Value syscall.Timespec }

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
	tfdCloexec     = 0x80000
)

func newAlarm() (*alarm, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &alarm{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleep parks the calling goroutine for d. One goroutine at a time.
func (a *alarm) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	spec := itimerspec{Value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, a.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var expirations [8]byte
	_, err := a.f.Read(expirations[:])
	return err
}

func (a *alarm) close() { a.f.Close() }
