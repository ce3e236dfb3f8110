module eefei/bench

go 1.22

require eefei v0.0.0

replace eefei => ../
