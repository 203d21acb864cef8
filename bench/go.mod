module uncertts/bench

go 1.24

require uncertts v0.0.0

replace uncertts => ../
