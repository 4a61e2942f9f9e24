package gridftp

// Ranges returns the covered ranges, sorted by offset.
func (l *Ledger) Ranges() []Range { return append([]Range(nil), l.ranges...) }
