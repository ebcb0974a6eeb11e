#!/usr/bin/env bash
# check_fma.sh — keep the kernels' reductions unfused on every
# architecture.
#
# On arm64 (also ppc64 and s390x) the Go compiler fuses x*y + z into one
# multiply-add, which rounds once where the separate multiply and add
# round twice. The sparse and dense K-means kernels, the cached CSR row
# norms and the VSM's normalization are bit-for-bit equal only while
# every one of them rounds the same way, and a stored dataset
# descriptor (the drift baseline a restarted daemon reads back) must be
# the same bits on every architecture, so internal/vec, internal/vsm
# and internal/stats write each product as float64(a * b), which
# forbids the fusion. This script cross-compiles for arm64, fails on
# any fused multiply-add (FMADDD, FMSUBD, FNMADDD, FNMSUBD) in those
# three packages, and prints the count of every other internal package
# that has some, without failing on them.
#
# Usage: scripts/check_fma.sh
set -euo pipefail
cd "$(dirname "$0")/.."

fused() { # number of fused multiply-adds in the arm64 code of package $1
	GOARCH=arm64 go build -gcflags=-S "$1" 2>&1 |
		grep -cE '\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b' || true
}

bad=0
for pkg in ./internal/vec ./internal/vsm ./internal/stats; do
	n=$(fused "$pkg")
	echo "check_fma: $pkg $n fused (must be 0)"
	if [[ $n -ne 0 ]]; then
		bad=1
	fi
done
for pkg in $(go list ./internal/...); do
	case $pkg in */internal/vec | */internal/vsm | */internal/stats) continue ;; esac
	n=$(fused "$pkg")
	if [[ $n -ne 0 ]]; then
		echo "check_fma: ${pkg#"$(go list -m)/"} $n fused (reported only)"
	fi
done
if [[ $bad -ne 0 ]]; then
	echo "check_fma: FAIL — a fused multiply-add in internal/vec, internal/vsm or internal/stats" >&2
	exit 1
fi
echo "check_fma: OK"
