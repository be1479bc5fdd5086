module sistream/benchmark

go 1.24

require sistream v0.0.0

replace sistream => ../
