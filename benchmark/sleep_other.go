//go:build !unix

package main

import "time"

func osSleep(d time.Duration) { time.Sleep(d) }
