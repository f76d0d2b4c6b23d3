#!/usr/bin/env bash
# The shape of the code base, recorded so that a change's effect on size,
# surface and coupling is one command. Run it from the repository root.
#
#   bash scripts/shape.sh record <out.json>
#       measures the tree as it is on disk (runs tier-1's `cargo test -q`
#       once, for the test count and its warm wall time) and writes one
#       JSON object.
#   bash scripts/shape.sh diff <a.json> <b.json>
#       prints every figure that differs between two records, as
#       `name: a -> b (delta)`, and the count of figures that did not.
#
# The rules, stated once:
#
# - A **non-test line** is a line of a `.rs` file under `crates/*/src`
#   that sits above the file's test module: the first unindented
#   `#[cfg(test)]` line whose next non-blank line starts with `mod ` (the
#   whole file when it has none). An indented `#[cfg(test)]` item, such
#   as a test hook inside an `impl`, counts as non-test. Blank lines and
#   comments count: they are code a reader reads. `crates/*/tests`, `crates/*/benches`, `tests/`,
#   `examples/`, `src/` (the facade) and `bfbench/` are not counted here.
# - A **pub item** is a non-test line that starts, after indentation,
#   with `pub fn`, `pub struct`, `pub enum`, `pub trait`, `pub type`,
#   `pub const`, `pub static`, `pub mod` or `pub use` (`pub(crate)` and
#   `pub(super)` are not public).
# - An **internal edge** is a normal (not dev, not build) dependency of a
#   workspace package on another workspace package, from
#   `cargo metadata --offline`.
# - `sleeps.src` counts `thread::sleep` on non-test lines; `sleeps.tests`
#   counts it in the test modules of `crates/*/src` and in every `.rs`
#   file of `crates/*/tests` and `tests/`.
# - `panics` counts `.unwrap()`, `.expect(` and `panic!` on the non-test
#   lines of `txn`, `engine`, `ha`, `net` and `core` (ROADMAP item 3.5).
# - `tier1.tests` is the sum of `N passed` over `cargo test -q`, and
#   `tier1.warm_s` its wall time after one untimed run has built it.
set -euo pipefail

record() {
    local out=$1
    cargo test -q >/dev/null 2>&1 || true
    local started ended log
    log=$(mktemp)
    started=$(date +%s.%N)
    cargo test -q >"$log" 2>&1 || true
    ended=$(date +%s.%N)
    cargo metadata --offline --format-version 1 --no-deps >"$log.meta"
    python3 - "$out" "$log" "$log.meta" "$started" "$ended" <<'EOF'
import glob, json, re, subprocess, sys

out, log, meta, started, ended = sys.argv[1:]

def split(path):
    """(non-test lines, test lines) of one source file."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for i, line in enumerate(lines):
        if line == "#[cfg(test)]":
            rest = [l for l in lines[i + 1 :] if l.strip()]
            if rest and rest[0].startswith("mod "):
                return lines[:i], lines[i:]
    return lines, []

PUB = re.compile(r"^\s*pub (fn|struct|enum|trait|type|const|static|mod|use)\b")
PANIC = re.compile(r"\.unwrap\(\)|\.expect\(|panic!")
SLEEP = re.compile(r"thread::sleep")

crates, files, pub_items = {}, {}, {}
panics = 0
sleeps_src = sleeps_tests = 0
for path in sorted(glob.glob("crates/*/src/**/*.rs", recursive=True)):
    crate = path.split("/")[1]
    code, test = split(path)
    crates[crate] = crates.get(crate, 0) + len(code)
    files[path] = len(code)
    pub_items[crate] = pub_items.get(crate, 0) + sum(1 for l in code if PUB.match(l))
    sleeps_src += sum(len(SLEEP.findall(l)) for l in code)
    sleeps_tests += sum(len(SLEEP.findall(l)) for l in test)
    if crate in ("txn", "engine", "ha", "net", "core"):
        panics += sum(len(PANIC.findall(l)) for l in code)
for path in glob.glob("crates/*/tests/**/*.rs", recursive=True) + glob.glob("tests/**/*.rs", recursive=True):
    with open(path, encoding="utf-8") as f:
        sleeps_tests += len(SLEEP.findall(f.read()))

with open(meta) as f:
    packages = json.load(f)["packages"]
names = {p["name"] for p in packages}
edges = sorted(
    f'{p["name"]} -> {d["name"]}'
    for p in packages
    for d in p["dependencies"]
    if d["name"] in names and d.get("kind") is None
)

with open(log) as f:
    tests = sum(int(n) for n in re.findall(r"test result: \w+\. (\d+) passed", f.read()))
with open("DESIGN.md") as f:
    design = sum(1 for _ in f)

rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True).stdout.strip()
dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], capture_output=True, text=True).stdout.strip()
shape = {
    "git_rev": rev + ("+dirty" if dirty else ""),
    "non_test_lines": {"total": sum(crates.values()), "crates": crates, "files": files},
    "pub_items": {"total": sum(pub_items.values()), "crates": pub_items},
    "internal_edges": {"count": len(edges), "edges": edges},
    "tier1": {"tests": tests, "warm_s": round(float(ended) - float(started), 1)},
    "sleeps": {"src": sleeps_src, "tests": sleeps_tests},
    "panics": panics,
    "design_md_lines": design,
}
with open(out, "w") as f:
    json.dump(shape, f, indent=1, sort_keys=True)
    f.write("\n")
EOF
    rm -f "$log" "$log.meta"
}

diff_shapes() {
    python3 - "$1" "$2" <<'EOF'
import json, sys

def flat(prefix, v, out):
    if isinstance(v, dict):
        for k, x in v.items():
            flat(f"{prefix}.{k}" if prefix else k, x, out)
    else:
        out[prefix] = v
    return out

a, b = (flat("", json.load(open(p)), {}) for p in sys.argv[1:3])
same = 0
for key in sorted(set(a) | set(b)):
    x, y = a.get(key), b.get(key)
    if x == y:
        same += 1
    elif isinstance(x, list) or isinstance(y, list):
        gone = sorted(set(x or []) - set(y or []))
        new = sorted(set(y or []) - set(x or []))
        print(f"{key}: -{gone} +{new}")
    elif isinstance(x, (int, float)) and isinstance(y, (int, float)) and not isinstance(x, bool):
        d = y - x
        print(f"{key}: {x} -> {y} ({'+' if d > 0 else ''}{round(d, 1)})")
    else:
        print(f"{key}: {x} -> {y}")
print(f"({same} figures unchanged)")
EOF
}

case "${1:-}" in
record)
    [ $# -eq 2 ] || { echo "usage: shape.sh record <out.json>" >&2; exit 2; }
    record "$2"
    ;;
diff)
    [ $# -eq 3 ] || { echo "usage: shape.sh diff <a.json> <b.json>" >&2; exit 2; }
    diff_shapes "$2" "$3"
    ;;
*)
    echo "usage: shape.sh record <out.json> | shape.sh diff <a.json> <b.json>" >&2
    exit 2
    ;;
esac
