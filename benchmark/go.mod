module nxcluster/benchmark

go 1.22

require nxcluster v0.0.0

replace nxcluster => ../
