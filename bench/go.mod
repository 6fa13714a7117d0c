module coradd/bench

go 1.24

require coradd v0.0.0

replace coradd => ../
