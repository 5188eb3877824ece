//go:build !linux

package main

import "time"

// sleeper paces the generator with Go timers where no timerfd exists.
type sleeper struct{}

func newSleeper() *sleeper { return &sleeper{} }

func (s *sleeper) sleep(d time.Duration) { time.Sleep(d) }

func (s *sleeper) close() {}
