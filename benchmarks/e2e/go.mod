module disc/benchmarks/e2e

go 1.22

require disc v0.0.0

replace disc => ../..
