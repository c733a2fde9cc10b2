module tpcxiot/bench

go 1.22

require tpcxiot v0.0.0

replace tpcxiot => ../
