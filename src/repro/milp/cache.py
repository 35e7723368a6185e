"""Canonical solve cache: memoize certified MILP solutions across solves.

The successive-augmentation loop, the chip-width sweep, re-linearization
rounds, and repeated bench/fuzz runs all solve long sequences of *identical*
MILP subproblems — the same window over the same covering rectangles, the
same legalization LP, the same fixture on the next CI run.  This module
caches solutions keyed by a **canonical structural hash** of the model's
:class:`~repro.milp.model.StandardForm`, so a re-solve of a structurally
identical model is a dictionary lookup instead of a branch-and-bound run.

Canonicalization (see :func:`canonical_form_text`):

* constraint rows are scaled by their largest absolute coefficient,
  sign-normalized, and **sorted** — row order and row scaling do not change
  the key;
* every coefficient and bound is quantized to :data:`KEY_SIGFIGS`
  significant digits (the documented tolerance) so bitwise float noise
  below that resolution cannot split equivalent models;
* the text is built from the form's CSR arrays: NumPy takes each row's
  scale and sign, and one ``%``-format call writes every number
  (``"%.12g"`` writes a float exactly as ``format(v, ".12g")`` does; -0.0
  is written ``"0"``).  Keying only reads the form;
* the variable-class vector (kind, lb, ub per column) and the objective
  (unscaled — scaling the objective changes its value) complete the key;
* a caller-supplied *context* tuple (backend, presolve flag, warm-start
  presence, tolerances, the non-overlap ``formulation`` identity, the
  fixed-outline die, and the ECO window shape ``(window, frozen)`` of
  incremental re-floorplanning subforms) is
  folded in, because those choices change which optimal vertex a
  deterministic backend returns even when the model doesn't.  The
  formulation entry also guards the axis structurally: two encodings of
  the same instance already canonicalize to different texts (different
  binaries and rows), but the explicit context keeps them apart even if a
  future encoding were canonically ambiguous.

Safety discipline (the reason this lives next to :mod:`repro.check`): a
cache that serves a stale or mis-keyed solution is worse than no cache, so
**every hit is independently re-certified** against the requesting model's
raw standard form via :func:`repro.check.certificate.check_certificate`
before it is served.  A hit that fails certification is evicted and the
model is re-solved — a poisoned cache can cost time, never correctness.
Only proven-``OPTIMAL`` solutions with a full variable assignment are ever
stored.

Tiers:

* an in-process LRU dictionary (always on);
* an optional on-disk tier of JSON blobs — one file per key — shared by
  parallel width-search workers and by consecutive runs.  The directory
  comes from the explicit ``cache_dir`` argument or the
  ``REPRO_CACHE_DIR`` environment variable (``~/.cache/repro-floorplan``
  is the conventional location, see :func:`default_cache_dir`).  Writes
  are atomic (temp file + ``os.replace``) so concurrent writers can race
  on the same key; a corrupt or truncated blob is treated as a miss and
  removed.
"""

from __future__ import annotations

import json
import math
import os
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.milp.expr import VarKind
from repro.milp.model import Model, StandardForm
from repro.milp.solution import DEFAULT_MIP_REL_GAP, Solution, SolveStatus
from repro.milp.telemetry import SolveTelemetry

#: Significant digits kept when quantizing coefficients and bounds into the
#: canonical key — the documented structural tolerance of the cache.  Two
#: forms whose scaled coefficients agree to 12 significant digits hash
#: identically; anything farther apart is a different key.
KEY_SIGFIGS = 12

#: Environment variable naming the on-disk cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Version stamped into every cache blob; bumping it invalidates old blobs.
BLOB_VERSION = 1

#: Default capacity of the in-memory LRU tier.
DEFAULT_MAX_ENTRIES = 256


def default_cache_dir() -> str:
    """The conventional on-disk cache location
    (``~/.cache/repro-floorplan``)."""
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-floorplan")


def resolve_cache_dir(cache_dir: str | os.PathLike | None = None) -> str | None:
    """The effective disk-tier directory: the explicit argument, else the
    ``REPRO_CACHE_DIR`` environment variable, else None (memory-only)."""
    if cache_dir:
        return str(cache_dir)
    env = os.environ.get(CACHE_DIR_ENV, "").strip()
    return env or None


# ---------------------------------------------------------------------------
# canonical structural hashing
# ---------------------------------------------------------------------------

#: The %-format of one quantized number; it writes a float exactly as
#: ``format(value, ".12g")`` does, "nan" and "inf" included.
_G = f"%.{KEY_SIGFIGS}g"

#: Each variable kind's letter in the key's ``vars=`` line.
_KIND_LETTER = {kind: kind.value[0] for kind in VarKind}


def _q(value: float) -> str:
    """Quantize one float to :data:`KEY_SIGFIGS` significant digits."""
    if math.isnan(value):
        return "nan"
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    if value == 0.0:
        return "0"
    return format(value, f".{KEY_SIGFIGS}g")


def canonical_form_text(form: StandardForm,
                        context: tuple = ()) -> str:
    """The canonical pre-hash text of a standard form.

    Exposed (rather than hidden inside the hash) so the collision property
    tests can assert that distinct keys correspond exactly to distinct
    canonical texts.  See the module docstring for the normalization rules.
    The form is only read: a CSR matrix that is not in canonical format is
    canonicalized on a copy.
    """
    a = form.a_matrix.tocsr()
    if not a.has_canonical_format:
        # tocsr() returns a CSR input itself: sum a copy, never the
        # caller's matrix.
        a = a.copy()
        a.sum_duplicates()
    n_rows = a.shape[0]
    keep = a.data != 0.0
    data = a.data[keep]
    cols = a.indices[keep]
    counts = np.bincount(
        np.repeat(np.arange(n_rows), np.diff(a.indptr))[keep],
        minlength=n_rows)
    starts = np.cumsum(counts) - counts
    # Each row is divided by its largest magnitude, negated when its first
    # (lowest-column) nonzero is negative: a row and its negation (bounds
    # swapped) are the same constraint.  Empty rows keep scale 1.
    scale = np.ones(n_rows)
    full = counts > 0
    if data.size:
        peak = np.maximum.reduceat(np.abs(data), starts[full])
        scale[full] = np.where(data[starts[full]] < 0.0, -peak, peak)
    with np.errstate(over="ignore"):  # a huge bound over a tiny scale: inf
        lo = np.asarray(form.row_lb, dtype=np.float64) / scale
        hi = np.asarray(form.row_ub, dtype=np.float64) / scale
    flip = scale < 0.0
    lo, hi = np.where(flip, hi, lo), np.where(flip, lo, hi)

    # One flat argument list per row, "c:v,...|lo|hi", so that a single
    # %-format call writes every number (+ 0.0 turns -0.0 into 0.0, which
    # _q writes as "0").
    width = 2 * counts + 2
    offset = np.cumsum(width) - width
    row_args = np.empty(int(width.sum()))
    slot = np.repeat(offset - 2 * starts, counts) + 2 * np.arange(data.size)
    row_args[slot] = cols
    row_args[slot + 1] = data / np.repeat(scale, counts) + 0.0
    row_args[offset + 2 * counts] = lo + 0.0
    row_args[offset + 2 * counts + 1] = hi + 0.0
    formats = {k: ",".join([f"%d:{_G}"] * k) + f"|{_G}|{_G}"
               for k in set(counts.tolist())}

    n_vars = len(form.variables)
    var_args: list = [None] * (3 * n_vars)
    var_args[0::3] = [_KIND_LETTER[v.kind] for v in form.variables]
    var_args[1::3] = (np.asarray(form.lb, dtype=np.float64) + 0.0).tolist()
    var_args[2::3] = (np.asarray(form.ub, dtype=np.float64) + 0.0).tolist()
    template = "\n".join([
        "vars=" + ";".join([f"%s:{_G}:{_G}"] * n_vars),
        "obj=" + ",".join([_G] * len(form.c)) + f"|{_G}|%d",
        *map(formats.__getitem__, counts.tolist())])
    lines = (template % (
        *var_args, *(np.asarray(form.c, dtype=np.float64) + 0.0).tolist(),
        float(form.c0) + 0.0, int(form.maximize),
        *row_args.tolist())).split("\n")
    rows = sorted(lines[2:])
    return "\n".join([f"cachev{BLOB_VERSION}",
                      "ctx=" + "|".join(str(item) for item in context),
                      lines[0], lines[1], "rows:", *rows])


def canonical_form_key(form: StandardForm, context: tuple = ()) -> str:
    """SHA-256 hex digest of :func:`canonical_form_text`."""
    import hashlib

    text = canonical_form_text(form, context)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# blobs: the stored representation of one certified solve
# ---------------------------------------------------------------------------

def blob_from_solution(solution: Solution, form: StandardForm
                       ) -> dict[str, Any] | None:
    """The JSON-safe cache blob for ``solution``, or None when the solution
    is not cacheable (only proven-OPTIMAL results with a full, finite
    assignment are stored)."""
    if solution.status is not SolveStatus.OPTIMAL:
        return None
    if not math.isfinite(solution.objective):
        return None
    values: list[float] = []
    for var in form.variables:
        value = solution.values.get(var)
        if value is None or not math.isfinite(value):
            return None
        values.append(float(value))
    return {
        "version": BLOB_VERSION,
        "status": solution.status.value,
        "objective": float(solution.objective),
        "bound": float(solution.bound)
        if math.isfinite(solution.bound) else None,
        "values": values,
        "n_variables": len(values),
        "n_nodes": int(solution.n_nodes),
        "backend": solution.backend,
        "telemetry": solution.telemetry.to_dict()
        if solution.telemetry is not None else None,
    }


def _valid_blob(blob: Any, n_variables: int) -> bool:
    """Structural validation of a loaded blob (corrupt blobs are misses)."""
    if not isinstance(blob, dict) or blob.get("version") != BLOB_VERSION:
        return False
    values = blob.get("values")
    if not isinstance(values, list) or len(values) != n_variables:
        return False
    if blob.get("status") != SolveStatus.OPTIMAL.value:
        return False
    objective = blob.get("objective")
    return isinstance(objective, (int, float)) and math.isfinite(objective)


def solution_from_blob(blob: dict[str, Any], form: StandardForm,
                       tier: str, key: str,
                       key_seconds: float) -> Solution:
    """Rebuild a :class:`Solution` from a cache blob, rebinding values to
    the *requesting* model's variables and stamping the telemetry with the
    cache provenance (``telemetry.cache``)."""
    telemetry = SolveTelemetry.from_dict(blob["telemetry"]) \
        if blob.get("telemetry") else SolveTelemetry(
            backend=blob.get("backend", ""),
            status=blob["status"],
            n_variables=len(form.variables),
            n_constraints=form.a_matrix.shape[0])
    telemetry.cache = {"hit": True, "tier": tier, "key": key[:16],
                       "key_seconds": key_seconds, "recertified": True}
    bound = blob.get("bound")
    return Solution(
        status=SolveStatus(blob["status"]),
        objective=float(blob["objective"]),
        values={var: float(v)
                for var, v in zip(form.variables, blob["values"])},
        bound=math.nan if bound is None else float(bound),
        n_nodes=int(blob.get("n_nodes", 0)),
        solve_seconds=key_seconds,
        backend=blob.get("backend", ""),
        message=f"served from solve cache ({tier} tier, re-certified)",
        telemetry=telemetry,
    )


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------

@dataclass
class CacheStats:
    """Process-wide counters of one :class:`SolveCache`."""

    hits: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    rejected: int = 0        # hits evicted because re-certification failed
    key_seconds: float = 0.0

    @property
    def lookups(self) -> int:
        """Total lookups answered."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """hits / lookups (0.0 before any lookup)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict[str, Any]:
        """A JSON-safe representation."""
        return {
            "hits": self.hits,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "rejected": self.rejected,
            "hit_rate": self.hit_rate,
            "key_seconds": self.key_seconds,
        }


class SolveCache:
    """A two-tier (memory LRU + optional disk) cache of certified solves.

    Args:
        cache_dir: on-disk tier directory; None resolves through
            :func:`resolve_cache_dir` (explicit arg > ``REPRO_CACHE_DIR`` >
            memory-only).
        max_entries: capacity of the in-memory LRU tier.
    """

    def __init__(self, cache_dir: str | os.PathLike | None = None, *,
                 max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.cache_dir = resolve_cache_dir(cache_dir)
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._memory: OrderedDict[str, dict[str, Any]] = OrderedDict()

    # -- tiers ------------------------------------------------------------------

    def _disk_path(self, key: str) -> Path:
        return Path(self.cache_dir) / f"{key}.json"

    def _read_disk(self, key: str) -> dict[str, Any] | None:
        if self.cache_dir is None:
            return None
        path = self._disk_path(key)
        try:
            blob = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError, ValueError):
            # Corrupt or truncated blob (a writer died mid-write before the
            # atomic-rename discipline, disk corruption, ...): a miss, and
            # the bad blob is removed so it cannot poison later lookups.
            self._unlink_quietly(path)
            return None
        if not isinstance(blob, dict):
            self._unlink_quietly(path)
            return None
        return blob

    def _write_disk(self, key: str, blob: dict[str, Any]) -> None:
        if self.cache_dir is None:
            return
        path = self._disk_path(key)
        tmp = path.with_name(f".{key}.{os.getpid()}.{id(blob):x}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(blob) + "\n")
            # Atomic on POSIX: concurrent writers race benignly — the last
            # complete blob wins, readers never observe a partial file.
            os.replace(tmp, path)
        except OSError:
            self._unlink_quietly(tmp)

    @staticmethod
    def _unlink_quietly(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    # -- public API ------------------------------------------------------------

    def lookup(self, key: str, n_variables: int
               ) -> tuple[dict[str, Any] | None, str | None]:
        """The blob stored under ``key`` and the tier that answered
        (``"memory"`` / ``"disk"``), or ``(None, None)`` on a miss.
        Invalid blobs (wrong version, wrong column count, non-OPTIMAL)
        count as misses."""
        blob = self._memory.get(key)
        if blob is not None and _valid_blob(blob, n_variables):
            self._memory.move_to_end(key)
            self.stats.hits += 1
            self.stats.memory_hits += 1
            return blob, "memory"
        blob = self._read_disk(key)
        if blob is not None and _valid_blob(blob, n_variables):
            self._remember(key, blob)
            self.stats.hits += 1
            self.stats.disk_hits += 1
            return blob, "disk"
        self.stats.misses += 1
        return None, None

    def store(self, key: str, blob: dict[str, Any]) -> None:
        """Store a blob in both tiers."""
        self._remember(key, blob)
        self._write_disk(key, blob)
        self.stats.stores += 1

    def evict(self, key: str) -> None:
        """Remove ``key`` from both tiers (used when a hit fails
        re-certification)."""
        self._memory.pop(key, None)
        if self.cache_dir is not None:
            self._unlink_quietly(self._disk_path(key))
        self.stats.evictions += 1

    def clear(self) -> None:
        """Drop the memory tier (disk blobs are left in place)."""
        self._memory.clear()

    @property
    def n_memory_entries(self) -> int:
        """Entries currently held by the LRU tier."""
        return len(self._memory)

    def _remember(self, key: str, blob: dict[str, Any]) -> None:
        self._memory[key] = blob
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)


# ---------------------------------------------------------------------------
# registry glue: serve / store with certification
# ---------------------------------------------------------------------------

def serve_cached(cache: SolveCache, key: str, model: Model,
                 form: StandardForm, *, int_tol: float = 1e-6,
                 mip_rel_gap: float = DEFAULT_MIP_REL_GAP,
                 key_seconds: float = 0.0) -> Solution | None:
    """Look up ``key`` and serve the stored solution **only if it
    re-certifies** against ``model``'s raw standard form.

    A hit that fails :func:`repro.check.certificate.check_certificate` is
    evicted from every tier and None is returned so the caller re-solves —
    the cache can never be the component that corrupts a floorplan.
    """
    blob, tier = cache.lookup(key, len(form.variables))
    if blob is None:
        return None
    solution = solution_from_blob(blob, form, tier or "memory", key,
                                  key_seconds)
    # Imported lazily: repro.check pulls in the fuzz harness, which imports
    # the solver registry, which imports this module.
    from repro.check.certificate import check_certificate

    report = check_certificate(model, solution, form=form, int_tol=int_tol,
                               mip_rel_gap=mip_rel_gap)
    if not report.ok:
        cache.evict(key)
        cache.stats.rejected += 1
        return None
    return solution


def record_store(cache: SolveCache, key: str, solution: Solution,
                 form: StandardForm, *, key_seconds: float = 0.0) -> bool:
    """Store ``solution`` under ``key`` if it is cacheable; annotate its
    telemetry with the miss provenance either way.  Returns True when
    stored."""
    if solution.telemetry is not None:
        solution.telemetry.cache = {"hit": False, "tier": None,
                                    "key": key[:16],
                                    "key_seconds": key_seconds,
                                    "recertified": False}
    blob = blob_from_solution(solution, form)
    if blob is None:
        return False
    cache.store(key, blob)
    return True


# ---------------------------------------------------------------------------
# process-wide cache registry
# ---------------------------------------------------------------------------

_CACHES: dict[str | None, SolveCache] = {}


def get_cache(cache_dir: str | os.PathLike | None = None) -> SolveCache:
    """The process-wide :class:`SolveCache` for the resolved directory
    (one shared instance per directory; one memory-only instance for
    None)."""
    resolved = resolve_cache_dir(cache_dir)
    cache = _CACHES.get(resolved)
    if cache is None:
        cache = SolveCache(resolved)
        _CACHES[resolved] = cache
    return cache


def clear_caches() -> None:
    """Forget every process-wide cache instance (tests use this to isolate
    cache state between cases; disk blobs are untouched)."""
    _CACHES.clear()
