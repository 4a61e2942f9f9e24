package cluster

// TotalCPUs reports the fleet's slot capacity.
func (f *Fleet) TotalCPUs() int { return f.TotalHosts() * f.Opts.CPUsPerHost }
