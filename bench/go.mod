module mpn/bench

go 1.24

require mpn v0.0.0

replace mpn => ../
