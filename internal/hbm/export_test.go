package hbm

// Beats reports the total heartbeat count for a process.
func (m *Monitor) Beats(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.procs[name]; ok {
		return r.beats
	}
	return 0
}
