module darklight/bench

go 1.22

require darklight v0.0.0

replace darklight => ../
