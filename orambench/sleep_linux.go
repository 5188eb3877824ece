package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timerfd constants from <sys/timerfd.h>.
const (
	clockMonotonic = 1
	tfdCloexec     = 0x80000
	tfdNonblock    = 0x800
)

type itimerspec struct{ interval, value syscall.Timespec }

// sleeper paces the generator on a Linux timerfd. Reading the timerfd
// parks the pacing goroutine in the Go netpoller: its processor is free to
// start the operations just launched, and the kernel wakes it on time. A
// Go timer would wake it up to a millisecond late whenever the scheduler
// is idle, and a raw nanosleep would hold the processor while it sleeps.
type sleeper struct {
	fd   uintptr
	file *os.File // nil: fall back to time.Sleep
}

func newSleeper() *sleeper {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return &sleeper{}
	}
	return &sleeper{fd: fd, file: os.NewFile(fd, "timerfd")}
}

// sleep blocks the calling goroutine for about d (d > 0). It may return
// early; callers re-check the clock.
func (s *sleeper) sleep(d time.Duration) {
	if s == nil || s.file == nil {
		time.Sleep(d)
		return
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	if errno != 0 {
		time.Sleep(d)
		return
	}
	var expirations [8]byte
	s.file.Read(expirations[:])
}

func (s *sleeper) close() {
	if s != nil && s.file != nil {
		s.file.Close()
	}
}
