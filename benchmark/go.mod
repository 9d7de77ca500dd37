module warplda/benchmark

go 1.22

require warplda v0.0.0

replace warplda => ../
