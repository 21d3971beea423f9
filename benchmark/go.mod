module multiscalar/benchmark

go 1.22

require multiscalar v0.0.0

replace multiscalar => ../
