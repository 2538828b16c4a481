module fastmatch/benchmark

go 1.22

require fastmatch v0.0.0

replace fastmatch => ../
