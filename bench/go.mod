module emdsearch/bench

go 1.22

require emdsearch v0.0.0

replace emdsearch => ../
