# CORADD reproduction — build/test entry points. Performance is measured
# with coraddbench: `go run -C bench coradd/bench --seed 42` (DESIGN.md §4).

.PHONY: build test race

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...
