module sr2201/bench

go 1.22

require sr2201 v0.0.0

replace sr2201 => ../
