#!/usr/bin/env bash
# Non-test code lines: the non-blank, non-`//` lines before the first
# `#[cfg(test)]` of every .rs file. Run from the root of the repository.
#
#   scripts/loc.sh           one line per crate (crates/*/src) and per shim
#                            (shims/<name>), one for src/, then the total
#   scripts/loc.sh --files   "<lines> <file>" for every file under
#                            crates/*/src and src/, largest first
#   scripts/loc.sh REV       the per-crate lines and the total, each with
#                            its change since the git revision REV
set -euo pipefail

# "<file> <lines>" for every .rs file under the directories given.
per_file() {
  find "$@" -name '*.rs' | sort | while read -r f; do
    echo "$f" "$(awk '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*$/ && !/^[[:space:]]*\/\//{n++} END{print n+0}' "$f")"
  done
}

# "<crate> <lines>", sorted by crate.
per_crate() {
  per_file crates/*/src shims/*/src src \
    | awk '{split($1, p, "/"); n[p[1] == "crates" ? p[2] : p[1] == "shims" ? "shims/" p[2] : p[1]] += $2} END {for (c in n) print c, n[c]}' \
    | sort
}

case "${1:-}" in
  "")
    per_crate | awk '{print; t += $2} END {print "non-test code lines:", t}'
    ;;
  --files)
    per_file crates/*/src src | awk '{print $2, $1}' | sort -rn
    ;;
  *)
    old=$(mktemp -d)
    trap 'rm -rf "$old"' EXIT
    git archive "$1" crates shims src | tar -x -C "$old"
    (cd "$old" && per_crate) > "$old/lines.txt"
    per_crate | awk -v rev="$1" '
      function delta(d) { return d > 0 ? "+" d : d }
      NR == FNR { old[$1] = $2; next }
      { new[$1] = $2 }
      END {
        for (c in old) if (!(c in new)) new[c] = 0
        for (c in new) {
          printf "%s %d (%s)\n", c, new[c], delta(new[c] - old[c]) | "sort"
          to += old[c]; tn += new[c]
        }
        close("sort")
        printf "non-test code lines: %d (%s since %s)\n", tn, delta(tn - to), rev
      }' "$old/lines.txt" -
    ;;
esac
