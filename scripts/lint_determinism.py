#!/usr/bin/env python3
"""Determinism and error-model lint for the Vertexica sources.

The engine's central claim (docs/API.md) is bit-identical results across
every execution configuration — thread count, encoding mode,
frontier path, vectorized path. That claim dies quietly: an
unordered-container iteration here, an unseeded random draw there. This lint
mechanically rejects the known ways nondeterminism (and the wrong error
model) sneak in:

  R1  std::unordered_map / std::unordered_set in src/ must carry an
      `order-insensitive:` justification comment (same line or within the
      three preceding lines) explaining why map-iteration order can never
      reach a result. Plain #include lines are exempt; prefer Int64HashMap
      (common/hash.h) where the key is an int64.

  R2  No rand()/srand()/time()/std::random_device outside src/common/
      random.* — all randomness flows through the seeded SplitMix/Xoshiro
      generators so every run is reproducible from its seed.

  R4  src/server/, src/api/, src/catalog/ are user-input layers: VX_CHECK /
      VX_CHECK_OK there abort the process on conditions a caller can
      trigger, where a Status return is owed instead. A check that guards a
      genuine internal invariant carries an `internal-invariant:`
      justification (same line or within the three preceding lines).

  R5  Every fault-injection site declared in src/ — a string literal inside
      VX_FAULT_POINT("...") or FaultPointHit("...") — must be referenced by
      name somewhere under tests/ or scripts/. An unexercised fault point is
      dead recovery code: the crash/abort path it guards has never been
      driven, so nothing stops it from silently rotting.

  R6  Two file sets exist to avoid materializing intermediates: the
      fused-pipeline stage files (src/exec/batch.*, src/exec/vectorized.*)
      defer materialization to the pipeline's end, and the superstep
      worker driver (src/vertexica/worker_driver.*) reads the graph tables
      in place instead of building a union table, partition copies, sorted
      partitions or split outputs. A raw materialization there —
      Table::Make, .Take(), .Slice(), .Append(), SortTable() — silently
      reintroduces the intermediates they remove.
      Each such call must carry a `materialize-ok:` justification (same
      line or within the three preceding lines) naming why it is a
      legitimate copy.

Exit status 0 when clean, 1 with one `file:line: [rule] message` per
violation otherwise. Pure stdlib; runs anywhere python3 exists.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
TESTS = REPO / "tests"
SCRIPTS = REPO / "scripts"

JUSTIFY_WINDOW = 3  # lines above a flagged line searched for a justification

UNORDERED_RE = re.compile(r"\bstd::unordered_(?:map|set)\b")
RANDOM_RE = re.compile(
    r"\bstd::random_device\b|(?<![\w.:>])s?rand\s*\(|(?<![\w.:>])time\s*\(")
VX_CHECK_RE = re.compile(r"\bVX_CHECK(?:_OK)?\b")
FAULT_SITE_RE = re.compile(
    r"\b(?:VX_FAULT_POINT|FaultPointHit)\s*\(\s*\"([^\"]+)\"")
USER_INPUT_LAYERS = ("server", "api", "catalog")
MATERIALIZE_RE = re.compile(
    r"\b(?:Table::Make|SortTable)\s*\(|"
    r"(?:\.|->)(?:Take|Slice|Append)\s*\(")
MATERIALIZE_FREE_PREFIXES = ("src/exec/batch", "src/exec/vectorized",
                             "src/vertexica/worker_driver")


def has_justification(lines, idx, marker):
    """True when `marker` appears on lines[idx] or the few lines above it."""
    lo = max(0, idx - JUSTIFY_WINDOW)
    return any(marker in lines[j] for j in range(lo, idx + 1))


def lint_file(path, violations):
    rel = path.relative_to(REPO).as_posix()
    lines = path.read_text().splitlines()

    in_common_random = rel.startswith("src/common/random")
    layer = rel.split("/")[1] if rel.count("/") >= 2 else ""

    for idx, line in enumerate(lines):
        code = line.split("//")[0]

        if (UNORDERED_RE.search(line) and not line.lstrip().startswith("#")
                and UNORDERED_RE.search(code)
                and not has_justification(lines, idx, "order-insensitive:")):
            violations.append(
                f"{rel}:{idx + 1}: [R1] std::unordered container without an "
                f"'order-insensitive:' justification (map-iteration order "
                f"must never reach a result; see scripts/"
                f"lint_determinism.py)")

        if RANDOM_RE.search(code) and not in_common_random:
            violations.append(
                f"{rel}:{idx + 1}: [R2] unseeded randomness or wall-clock "
                f"entropy outside src/common/random.* (use the seeded "
                f"generators so runs reproduce from their seed)")

        if (layer in USER_INPUT_LAYERS and VX_CHECK_RE.search(code)
                and not has_justification(lines, idx, "internal-invariant:")):
            violations.append(
                f"{rel}:{idx + 1}: [R4] VX_CHECK in the user-input layer "
                f"'src/{layer}/' — return a Status the caller can handle, "
                f"or justify with 'internal-invariant:'")

        if (rel.startswith(MATERIALIZE_FREE_PREFIXES)
                and MATERIALIZE_RE.search(code)
                and not has_justification(lines, idx, "materialize-ok:")):
            violations.append(
                f"{rel}:{idx + 1}: [R6] raw materialization inside a "
                f"fused-pipeline stage or the in-place worker driver — "
                f"these materialize only their outputs; justify a "
                f"legitimate copy with 'materialize-ok:'")


def lint_fault_sites(violations):
    """R5: fault sites declared in src/ must be exercised from tests/ or
    scripts/ — an uninjected fault point guards a recovery path no test has
    ever driven."""
    sites = []  # (name, rel, line)
    for path in sorted(SRC.rglob("*")):
        if path.suffix not in (".cc", ".h"):
            continue
        rel = path.relative_to(REPO).as_posix()
        for idx, line in enumerate(path.read_text().splitlines()):
            for m in FAULT_SITE_RE.finditer(line.split("//")[0]):
                sites.append((m.group(1), rel, idx + 1))
    if not sites:
        return
    corpus = []
    for root in (TESTS, SCRIPTS):
        for path in sorted(root.rglob("*")):
            if path.is_file() and path.suffix in (
                    ".cc", ".h", ".py", ".sh", ".cpp"):
                corpus.append(path.read_text())
    haystack = "\n".join(corpus)
    for name, rel, lineno in sites:
        if name not in haystack:
            violations.append(
                f"{rel}:{lineno}: [R5] fault site '{name}' is never "
                f"referenced under tests/ or scripts/ — arm it in a test "
                f"(ArmFault/VERTEXICA_FAULTS) so its recovery path is "
                f"actually driven")


def main():
    violations = []
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".cc", ".h"):
            lint_file(path, violations)
    lint_fault_sites(violations)
    if violations:
        print(f"lint_determinism: {len(violations)} violation(s)",
              file=sys.stderr)
        for v in violations:
            print(v, file=sys.stderr)
        return 1
    print("lint_determinism: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
