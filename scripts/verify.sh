#!/usr/bin/env bash
# Full verification of the EE-FEI repository: build, vet, tests (the root
# package's checked Examples, and cmd/experiments' check of every block
# EXPERIMENTS.md quotes, among them), and one-shot benchmarks.
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

echo "== other systems =="
# internal/fldgram splits by OS: segmentation offload is Linux's (a stub
# elsewhere), and SO_REUSEPORT comes from syscall, or from the asm-generic
# value where syscall's tables predate it, or is missing and Listen fails.
# A Linux build compiles one side of each split only.
for goos in darwin freebsd windows; do
    GOOS=$goos go build ./...
done

echo "== tests =="
# Among them the root package's TestNoTestOnlyExports (no export or method
# under internal/ may be used by tests alone) and TestHouseRules (no
# selection or aggregation plug-ins, gofmt, one worker pool, one integer-only
# wire predictor, no fused multiply-add in the kernels, an integer-only
# vector codec, one public surface).
go test ./...

echo "== tests (race detector) =="
go test -race ./...
# The round's fan-in (replies posted on one channel, repairs in their own
# goroutines) must be race-free every run, not most runs.
go test -race -count=5 -run 'Straggler|Chaos|Rejoin|Shutdown|NeverReads|SilentDatagramPeer' ./internal/flnet
# So must a datagram frame that one goroutine sends and another flushes, and
# the ARQ over the test carrier that duplicates, reorders and loses ACKs.
go test -race -count=5 -run '^Test(Send|ConnDupAndReorder|ConnAckLossRecovers|WindowDupReorderNoStorm|UDPOffloadMatchesPerPacket|PipeRunsMatchPerPacket)' ./internal/fldgram

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
# The kernel counts such overflows too: on Linux, Udp RcvbufErrors in
# /proc/net/snmp (per network namespace) must not move across the run.
rcvbuf_errors() {
    awk '$1 == "Udp:" { if (!col) { for (i = 2; i <= NF; i++) if ($i == "RcvbufErrors") col = i } else { print $col; exit } }' /proc/net/snmp
}
[ -r /proc/net/snmp ] && rcvbuf_before=$(rcvbuf_errors)
go run -C bench . -workload wire_dgram_loss10 -trace 0 -runs 3
if [ -r /proc/net/snmp ]; then
    rcvbuf_after=$(rcvbuf_errors)
    if [ "$rcvbuf_before" != "$rcvbuf_after" ]; then
        echo "Udp RcvbufErrors moved across wire_dgram_loss10: $rcvbuf_before before, $rcvbuf_after after (a socket receive buffer overflowed)"; exit 1
    fi
    echo "Udp RcvbufErrors: $rcvbuf_before before, $rcvbuf_after after"
else
    echo "no /proc/net/snmp: socket-overflow guard skipped"
fi
# The in-process fleet trains on row views of one training set
# (dataset.EqualShards): two episodes must reach ε and agree on the digest,
# so a shard that aliased the wrong rows, or was written through, fails here.
go run -C bench . -workload train_inproc -trace 0 -runs 2

echo "== reassembly fuzzer (smoke) =="
# A short live-fuzz burst on top of the checked-in corpus (which every plain
# `go test` replays): hostile fragment streams must never panic nor deliver
# corrupted bytes. Longer runs: go test -fuzz FuzzReassembly ./internal/fldgram
go test -run='^$' -fuzz 'FuzzReassembly' -fuzztime 5s ./internal/fldgram

echo "== coalesced-datagram fuzzer (smoke) =="
# The same for the split of a coalesced datagram at its declared packet size
# and for the UDP_GRO control-message parser: any run, size or control
# buffer must never panic nor deliver anything but a prefix of the stream.
go test -run='^$' -fuzz '^FuzzCoalesced$' -fuzztime 5s ./internal/fldgram

echo "== delta decoder fuzzer (smoke) =="
# The same for the lossless delta decoder, which parses a peer's bit-packed
# model bodies: arbitrary bytes must be refused or decoded, never read past
# the body, and decode alike on the portable and the vector path.
go test -run='^$' -fuzz '^FuzzApplyDelta$' -fuzztime 5s ./internal/ml

echo "== planner fuzzer (smoke) =="
# The same for Algorithm 1 over arbitrary constants: an invalid problem is
# refused, a valid one plans a feasible integer point (or reports
# ErrInfeasible) and is never cheaper than the exhaustive grid can be.
go test -run='^$' -fuzz '^FuzzPlan$' -fuzztime 5s ./internal/core

echo "== planner CLI =="
go run ./cmd/eefei-plan -grid

echo "== benches (single shot, all packages) =="
# Smoke-run every benchmark once so a panic in a bench-only code path fails
# verify. Numbers come from `go run -C bench .`; the allocation pins are
# AllocsPerRun tests beside the code they guard and ran with the tests above.
go test -bench=. -benchmem -benchtime=1x -run='^$' ./...

echo "ALL VERIFICATIONS PASSED"
