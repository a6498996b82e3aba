#!/usr/bin/env bash
# Same code, two interleaved sets of runs, every workload x end-to-end
# metric judged against its bound. Exits non-zero on any cell outside.
#   benchmark/aa.sh [--sets 2] [--runs 5] [--workload W] [--seconds S]
set -euo pipefail
cd "$(dirname "$0")"
exec cargo run --release --offline --quiet -- aa "$@"
