//go:build !linux

package main

import "time"

// pacer sleeps an open-loop sender until each request is due, with the
// runtime's timer precision.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

func (*pacer) sleepUntil(t time.Time) error {
	time.Sleep(time.Until(t))
	return nil
}

func (*pacer) close() error { return nil }
