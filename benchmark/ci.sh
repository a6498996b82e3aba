#!/usr/bin/env bash
# What CI would run for this package (.github/ is outside its reach):
# build, unit + smoke tests, one smoke `run` of all five workloads, and
# a shape check of the contract file and of the result line.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
cargo test --release --offline

out=$(cargo run --release --offline --quiet -- run --smoke)
echo "$out" | tail -n 1 | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
assert set(r) == {"correct", "attempted", "failed", "metrics"}, sorted(r)
assert r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1
assert all(set(m) == {"value", "unit"} for m in r["metrics"].values())
print("result line ok:", len(r["metrics"]), "metrics")
'

python3 - <<'PY'
import json, re
c = json.load(open("../BENCHMARK.json"))
assert set(c) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
names = [x["name"] for k in ("workloads", "end_to_end", "per_layer") for x in c[k]]
assert all(name.match(n) for n in names) and len(names) == len(set(names))
assert 2 <= len(c["workloads"]) <= 8 and 1 <= len(c["end_to_end"]) <= 16 and 1 <= len(c["per_layer"]) <= 128
assert all(0 < e["bound"] <= 0.25 for e in c["end_to_end"])
assert any(e["name"] == "setup_s" and e["unit"] == "s" and e["better"] == "lower" for e in c["end_to_end"])
runs = 4 + 22 * len(c["workloads"])
print("contract ok:", len(c["per_layer"]), "per-layer metrics;", runs, "driver runs of", c["run_seconds"], "s")
PY
