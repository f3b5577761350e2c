module netclone/benchmark

go 1.24

require netclone v0.0.0

replace netclone => ../
