package gass

// CacheSize reports cached entry count.
func (c *Client) CacheSize() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// CacheBytes reports the cached data volume.
func (c *Client) CacheBytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}
