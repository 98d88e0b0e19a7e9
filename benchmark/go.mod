module steppingnet/benchmark

go 1.24

require steppingnet v0.0.0

replace steppingnet => ../
