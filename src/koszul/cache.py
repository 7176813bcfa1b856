"""The strand-record memo shared by every engine: an in-memory map, optionally
backed by an append-only JSONL file so later runs replay it.

A cache directory holds one such file per ring, named by cache_path, so a
command reads only the records of its own (n, c).
"""

from __future__ import annotations

import json
import logging
import os
import weakref

ENGINE_VERSION = "0.2.0"

log = logging.getLogger("kosz")

_decode = json.JSONDecoder().decode
_INT = frozenset((int,))  # the one type a key field, face count or rank may have


def cache_path(directory: str, n: int, c: int) -> str:
    """The cache file of the records of ring (n, c) in a cache directory."""
    return os.path.join(directory, f"rank_cache-n{n}-c{c}.jsonl")


class RankCache:
    """Append-only line-delimited store of multidegree-strand records.

    A record is keyed by (n, c, alpha, p), where a HomologyEngine's alpha
    is a strand key (complex.strand_key: sorted, each part capped at
    M = binomial(n+c-1, c-1)), so every multidegree whose parts differ only
    above M reads the one record.  faces[t] counts the
    t-vertex faces of Delta_alpha, the basis of K_t at alpha (faces[0] = 1),
    and ranks[t] is the rank of d_t at alpha over F_p, or over Q when p = 0
    (ranks[0] = 0), so dim H_t at alpha is faces[t] - ranks[t] - ranks[t+1].
    A p = 0 record is always proven: by fraction-free elimination, or by an
    F_p record whose homology is never nonzero at two adjacent levels (see
    homology.proves_rational); sampled ranks that lack that proof are kept
    under their primes.
    One JSON object per line, keys sorted, as json.dumps(record,
    sort_keys=True) prints it; put writes that line directly, without the
    JSON encoder.  Records from other engine versions are ignored.  A file
    may hold records of any ring, though cache_path gives each ring its
    own.  With path None the cache lives in memory.  New records go through
    one append handle, opened at the first and flushed after each, so the
    file stays current for other readers, and closed with the cache; the
    first record starts a new line if the file's last line was torn.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self._mem: dict[tuple, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        self._fh = None  # the append handle, opened at the first new record
        if path and os.path.exists(path):
            self._load(path)

    def _load(self, path: str) -> None:
        """Read the records of path.  Corrupt lines (including one that is not
        UTF-8, one nested too deep to decode, or a key field that is not a
        JSON integer) are skipped with a warning; so is a record that fails
        a check, unless a later valid record for the same key replaces it (as
        after a recompute).  A record's checks: faces and ranks are JSON
        integers, as many faces as ranks, from 1 face and rank 0,
        0 <= ranks[t] <= min(faces[t-1], faces[t]) and
        ranks[t] + ranks[t+1] <= faces[t].  Of two valid records for one key
        that differ, the later is kept, with a warning.  A corrupt line has
        no key for a recompute to replace, so every later load warns about
        it again; what the commands print and the records they read are
        unaffected, and deleting the file silences the warning.

        A line costs one JSON decode and one pass over its levels.  Level t
        tests ranks[t-1] + ranks[t] <= faces[t-1], the second check at t - 1
        (at t = 1 it is the first check's ranks[1] <= faces[0] = 1), and
        0 <= ranks[t] <= faces[t]; the ranks are nonnegative, so the two
        give the first check's ranks[t] <= faces[t-1] too, and the second
        check at the top level follows from the first.  A failing level is
        named by the first of the checks above, in their order, that fails.
        """
        mem = self._mem
        kept: dict[tuple, int] = {}  # key -> line of the record in memory
        failed: dict[tuple, list[tuple[int, Exception]]] = {}  # key -> (line, fault)
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, 1):
                if line.isspace():
                    continue
                key = None
                try:
                    rec = _decode(line.decode("utf-8"))
                    if rec["engine"] != ENGINE_VERSION:
                        continue
                    n, c, alpha, p = rec["n"], rec["c"], tuple(rec["alpha"]), rec["p"]
                    if not (type(n) is type(c) is type(p) is int
                            and _INT.issuperset(map(type, alpha))):
                        raise TypeError("n, c, alpha and p must be integers")
                    key = n, c, alpha, p
                    faces, ranks = tuple(rec["faces"]), tuple(rec["ranks"])
                    if not _INT.issuperset(map(type, faces + ranks)):
                        raise TypeError("faces and ranks must be integers")
                    if len(faces) != len(ranks) or faces[:1] != (1,) or ranks[:1] != (0,):
                        raise ValueError("need as many faces as ranks, from 1 face and rank 0")
                    levels = zip(faces, faces[1:], ranks, ranks[1:])
                    for t, (low, face, r_low, r) in enumerate(levels, 1):
                        if r_low + r > low or r < 0 or r > face:
                            if t > 1 and r_low + r > low:
                                raise ValueError(f"rank d_{t - 1} + rank d_{t} above {low} faces")
                            raise ValueError(f"rank d_{t} = {r} above a face count or negative")
                except (KeyError, TypeError, ValueError, RecursionError) as exc:
                    if key is None:
                        log.warning("%s:%d: skipping corrupt cache line (%s)", path, lineno, exc)
                    else:
                        failed.setdefault(key, []).append((lineno, exc))
                    continue
                failed.pop(key, None)
                old = mem.get(key)
                if old is not None and old != (faces, ranks):
                    log.warning(
                        "%s:%d: cache record for alpha=%s, p=%d differs from line %d; "
                        "keeping line %d", path, lineno, key[2], key[3], kept[key], lineno,
                    )
                mem[key] = faces, ranks
                kept[key] = lineno
        for (_, _, alpha, p), faults in failed.items():
            for lineno, exc in faults:
                log.warning("%s:%d: skipping cache record for alpha=%s, p=%d (%s)",
                            path, lineno, alpha, p, exc)

    def get(self, n: int, c: int, alpha: tuple, p: int):
        """The (faces, ranks) record of the strand at sorted alpha, or None."""
        return self._mem.get((n, c, tuple(alpha), p))

    def put(self, n: int, c: int, alpha: tuple, p: int, faces, ranks) -> None:
        key = (n, c, tuple(alpha), p)
        value = tuple(faces), tuple(ranks)
        if self._mem.get(key) == value:
            return
        self._mem[key] = value
        if self.path:
            # json.dumps(record, sort_keys=True), written out: a list of ints
            # prints as its JSON array
            line = (
                f'{{"alpha": {list(alpha)}, "c": {c}, "engine": "{ENGINE_VERSION}", '
                f'"faces": {list(faces)}, "n": {n}, "p": {p}, "ranks": {list(ranks)}}}\n'
            )
            try:
                if self._fh is None:
                    self._fh = fh = open(self.path, "ab+")
                    weakref.finalize(self, fh.close)  # closed with the cache
                    # a writer killed mid-line leaves the file torn: end its
                    # line, or this record would join it and be lost with it
                    if fh.seek(0, os.SEEK_END):
                        fh.seek(-1, os.SEEK_END)
                        if fh.read(1) != b"\n":
                            fh.write(b"\n")
                self._fh.write(line.encode())
                self._fh.flush()  # current for any other reader of the file
            except OSError as exc:
                raise OSError(f"cannot append to cache {self.path}: {exc}") from exc
