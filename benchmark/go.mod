module vidrec/benchmark

go 1.22

require vidrec v0.0.0

replace vidrec => ../
