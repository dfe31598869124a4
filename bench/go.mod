module github.com/swamp-project/swamp/bench

go 1.24

require github.com/swamp-project/swamp v0.0.0

replace github.com/swamp-project/swamp => ../
