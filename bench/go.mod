module hypertree/bench

go 1.24

require hypertree v0.0.0

replace hypertree => ../
