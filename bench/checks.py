"""Output checks for every benchmark query.

A query passes when it exits 0, its normalized stdout has the SHA-256 digest
recorded in reference.json, its `OK (...)` line (verify queries) equals the
recorded one, and every value the repository pins for it holds.  The seed
only reaches stdout as `seed=<n>` inside the field description, so
normalization replaces that token and one digest serves every seed.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Expected dim H(m^3) diagram for n = 3, as pinned by the acceptance suite:
# entry (t, j) is the dimension in internal degree 3t + j.
DIAGRAM_33 = {
    0: {0: 1, 1: 3, 2: 6},
    1: {1: 15, 2: 39, 3: 27},
    2: {1: 21, 2: 105, 3: 105, 4: 21},
    3: {2: 147, 3: 189, 4: 105},
    4: {2: 105, 3: 189, 4: 147},
    5: {2: 21, 3: 105, 4: 105, 5: 21},
    6: {3: 27, 4: 39, 5: 15},
    7: {4: 6, 5: 3, 6: 1},
}


def normalize(stdout: str, seed: int) -> str:
    return re.sub(rf"\bseed={seed}\b", "seed=*", stdout)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def ok_line(text: str) -> str | None:
    return next((line for line in text.splitlines() if line.startswith("OK (")), None)


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def parse_diagram(text: str) -> dict[tuple[int, int], int]:
    """(t, j) -> dimension from a rendered diagram; a dash reads as 0."""
    lines = text.splitlines()
    cols = [int(tok) for tok in lines[0].split("|")[1].split()]
    out = {}
    for line in lines[2:]:
        label, _, row = line.partition("|")
        for t, tok in zip(cols, row.split()):
            out[(t, int(label))] = 0 if tok == "-" else int(tok)
    return out


def _diagram_33(text: str) -> list[str]:
    got = parse_diagram(text)
    want = {(t, j): v for t, row in DIAGRAM_33.items() for j, v in row.items()}
    bad = [
        f"(t={t}, j={j}) = {got.get((t, j))}, expected {want.get((t, j), 0)}"
        for t in range(8)
        for j in range(7)
        if got.get((t, j)) != want.get((t, j), 0)
    ]
    return [f"DIAGRAM_33 entry {b}" for b in bad]


def _contains(*needles: str):
    def check(text: str) -> list[str]:
        return [f"missing {needle!r}" for needle in needles if needle not in text]

    return check


# Values pinned by the repository's acceptance suite and the paper.
PINNED = {
    "table_n3c3": _diagram_33,
    "table_n3c3_exact": _diagram_33,
    "index_n3c3": _contains("ind = 6 (", "beta[7,9] = 1"),
    "homology_n7c2_t5_d12_p5": _contains("dim H_5 in degree 12 = 172900 "),
    "chardep_n7c2_t2_d7": _contains("characteristics where dimensions can jump: 3\n"),
    "factorial_n7c2_p3_stratum": _contains(
        "630 witnesses", "findings: 630 unscaled witnesses"
    ),
}


def check(qid: str, rc: int, stdout: str, seed: int, reference: dict | None) -> list[str]:
    """Problems with one query's result; empty when it passes.  With no
    reference (while recording one) only the exit code and pinned values
    are checked."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    text = normalize(stdout, seed)
    if reference is not None:
        ref = reference.get(qid)
        if ref is None:
            return problems + ["no reference recorded"]
        if digest(text) != ref["sha256"]:
            problems.append("stdout digest differs from the reference")
        if ok_line(text) != ref["ok_line"]:
            problems.append(f"OK line {ok_line(text)!r}, expected {ref['ok_line']!r}")
    pinned = PINNED.get(qid)
    if pinned is not None:
        try:
            problems += pinned(text)
        except (IndexError, ValueError) as exc:
            problems.append(f"unparseable output ({exc})")
    return problems
