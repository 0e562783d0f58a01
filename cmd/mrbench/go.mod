module moira/cmd/mrbench

go 1.22

require moira v0.0.0

replace moira => ../..
