package nexus

import "sync/atomic"

// Dropped returns the count of RSRs that arrived for unknown endpoints or
// handlers.
func (c *Context) Dropped() int64 { return atomic.LoadInt64(&c.dropCount) }

// Sent returns the number of RSRs sent.
func (sp *Startpoint) Sent() int64 { return atomic.LoadInt64(&sp.sent) }
