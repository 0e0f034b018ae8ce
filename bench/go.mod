module privid/bench

go 1.24

require privid v0.0.0

replace privid => ../
