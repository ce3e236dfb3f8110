#!/usr/bin/env bash
# Full verification of the EE-FEI repository: build, vet, tests, examples,
# experiment regeneration, and one-shot benchmarks.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build =="
go build ./...

echo "== vet =="
go vet ./...

echo "== portable path =="
# internal/mat's AVX2 kernels are amd64-only; every other architecture builds
# the portable kernels alone, through kernels_other.go. An amd64 build cannot
# notice when that file falls out of step (an undefined name there breaks
# only the other architectures), so cross-compile one.
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/mat ./internal/ml

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:"; echo "$unformatted"; exit 1
fi

echo "== one pool =="
# internal/par is the only worker pool (DESIGN.md §7 "Round core"); a fifth
# hand-rolled one must not reappear in the packages it replaced them in.
if git grep -nE 'cursor\.Add\(1\)|sync\.WaitGroup' -- internal/fl internal/ml internal/dataset internal/experiments ':!*_test.go'; then
    echo "hand-rolled worker pool found: use par.Do"; exit 1
fi

echo "== one predictor =="
# Both ends of a link form the lossless wire codec's prediction from models
# they hold, and must arrive at the same bits on any pair of architectures.
# internal/ml/delta.go's predict does, because it is wrapping integer + and −
# on bit patterns. A float64 rewrite would round; 2*a − c would round
# differently; and Go fuses x*y + z into one rounding (math.FMA) on arm64,
# ppc64 and s390x but not on amd64 — a prediction off by one bit on one end
# silently desynchronises the pair. So: no multiplication inside predict, no
# fused multiply-add anywhere in the file.
predict_src=$(awk '/^func predict\(/{p=1} p{print} p&&/}[[:space:]]*$/{exit}' internal/ml/delta.go)
if [ -z "$predict_src" ]; then
    echo "internal/ml/delta.go: func predict not found"; exit 1
fi
if grep -n '\*' <<<"$predict_src"; then
    echo "internal/ml/delta.go: predict multiplies"; exit 1
fi
if git grep -nE 'math\.FMA|FMA\(' -- internal/ml/delta.go; then
    echo "internal/ml/delta.go: fused multiply-add in the wire codec"; exit 1
fi

echo "== no fused multiply-add in kernels =="
# The vector kernels are bit-identical to the portable ones only because each
# lane multiplies, rounds, then adds and rounds again, as Go does on amd64. A
# fused multiply-add rounds once, so one VFMADD in internal/mat's assembly
# moves weights, digests and every bit-identity reference.
if grep -nE 'VFMADD|VFMSUB|VFNMADD|VFNMSUB' internal/mat/*.s internal/ml/*.s; then
    echo "fused multiply-add in a kernel"; exit 1
fi

echo "== integer-only codec =="
# internal/ml's vector delta coder is bit-identical to the portable one by
# construction: it is integer arithmetic on bit patterns (wrapping adds and
# subtracts, shifts, compares, byte shuffles), with no rounding to agree on.
# One floating-point add, subtract, multiply, divide or square root there
# would round, and break that across the two ends of a link.
if grep -nE 'V?(ADD|SUB|MUL|DIV|SQRT)(P|S)D|VFM' internal/ml/*.s; then
    echo "internal/ml: floating-point arithmetic in the integer-only codec"; exit 1
fi

echo "== tests =="
go test ./...

echo "== tests (race detector) =="
go test -race ./...

echo "== bench module =="
# bench/ is its own module (eefei/bench, replace eefei => ../), so the
# ./... sweeps above never enter it: an API break there would otherwise
# first show up as a failed benchmark run.
(cd bench && go vet ./... && go test ./...)
# The lossy-link workload runs to ε, not the 5 rounds of -smoke: three
# same-seed episodes must agree bit for bit, attempted/delivered must sit
# within 2 % of 1/p and every datagram must validate. A window that
# overflows the listener's socket buffer turns injected loss into real loss
# and fails all three, which -smoke's 10 % tolerance would not notice.
go run -C bench . -workload wire_dgram_loss10 -trace 0 -runs 3
# The in-process fleet trains on row views of one training set
# (dataset.EqualShards): two episodes must reach ε and agree on the digest,
# so a shard that aliased the wrong rows, or was written through, fails here.
go run -C bench . -workload train_inproc -trace 0 -runs 2

echo "== reassembly fuzzer (smoke) =="
# A short live-fuzz burst on top of the checked-in corpus (which every plain
# `go test` replays): hostile fragment streams must never panic nor deliver
# corrupted bytes. Longer runs: go test -fuzz FuzzReassembly ./internal/fldgram
go test -run='^$' -fuzz 'FuzzReassembly' -fuzztime 5s ./internal/fldgram

echo "== delta decoder fuzzer (smoke) =="
# The same for the lossless delta decoder, which parses a peer's bit-packed
# model bodies: arbitrary bytes must be refused or decoded, never read past
# the body, and decode alike on the portable and the vector path.
go test -run='^$' -fuzz '^FuzzApplyDelta$' -fuzztime 5s ./internal/ml

echo "== examples =="
go run ./examples/quickstart
go run ./examples/energy_planner
go run ./examples/federated_mnist | tail -4
go run ./examples/networked_fl | tail -3
go run ./examples/networked_fl -fault-drop-kb 30 | tail -3

echo "== experiments (quick scale) =="
go run ./cmd/experiments

echo "== planner CLI =="
go run ./cmd/eefei-plan -grid

echo "== benches (single shot, all packages) =="
# Smoke-run every benchmark once so a panic in a bench-only code path fails
# verify. Numbers come from `go run -C bench .`; the allocation pins are
# AllocsPerRun tests beside the code they guard and ran with the tests above.
go test -bench=. -benchmem -benchtime=1x -run='^$' ./...

echo "ALL VERIFICATIONS PASSED"
