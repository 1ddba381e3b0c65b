module vmshortcut/benchmark

go 1.22

require vmshortcut v0.0.0

replace vmshortcut => ../
