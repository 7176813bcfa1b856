"""The block-rank memo shared by every engine: an in-memory map, optionally
backed by an append-only JSONL file so later runs replay it."""

from __future__ import annotations

import json
import logging
import os

ENGINE_VERSION = "0.1.0"

log = logging.getLogger("kosz")


class RankCache:
    """Append-only line-delimited store of block ranks.

    One JSON object per line with stable key order; records from other
    engine versions are ignored; corrupt lines are skipped with a warning.
    With path None the cache lives in memory only.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self._mem: dict[tuple, int] = {}
        if path and os.path.exists(path):
            self._load(path)

    def _load(self, path: str) -> None:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    if rec["engine"] != ENGINE_VERSION:
                        continue
                    key = (
                        int(rec["n"]),
                        int(rec["c"]),
                        int(rec["t"]),
                        tuple(int(a) for a in rec["alpha"]),
                        int(rec["p"]),
                    )
                    rank = int(rec["rank"])
                    if rank < 0:
                        raise ValueError(f"negative rank {rank}")
                    self._mem[key] = rank
                except (KeyError, TypeError, ValueError) as exc:
                    log.warning("%s:%d: skipping corrupt cache line (%s)", path, lineno, exc)

    def get(self, n: int, c: int, t: int, alpha: tuple, p: int) -> int | None:
        return self._mem.get((n, c, t, tuple(alpha), p))

    def put(self, n: int, c: int, t: int, alpha: tuple, p: int, rank: int) -> None:
        key = (n, c, t, tuple(alpha), p)
        if self._mem.get(key) == rank:
            return
        self._mem[key] = rank
        if self.path:
            rec = {
                "n": n,
                "c": c,
                "t": t,
                "alpha": list(alpha),
                "p": p,
                "rank": rank,
                "engine": ENGINE_VERSION,
            }
            try:
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")
            except OSError as exc:
                raise OSError(f"cannot append to cache {self.path}: {exc}") from exc

    def __len__(self) -> int:
        return len(self._mem)
