"""Unit tests of the canonical solve cache (:mod:`repro.milp.cache`).

Covers the canonical key (stability, row-order/scaling/sign invariance,
difference detection), the two storage tiers (LRU eviction, disk roundtrip,
corrupt-blob handling), and the registry integration (hit/store counters,
telemetry provenance, the poisoned-hit evict-and-resolve path).
"""

from __future__ import annotations

import hashlib
import json
import math

import pytest

from repro.milp import cache as cache_mod
from repro.milp.cache import (
    CACHE_DIR_ENV,
    SolveCache,
    blob_from_solution,
    canonical_form_key,
    canonical_form_text,
    clear_caches,
    get_cache,
    record_store,
    resolve_cache_dir,
)
from repro.milp.model import Model
from repro.milp.solution import Solution, SolveStatus
from repro.milp.solvers.registry import solve


def _small_model(*, flip_row=False, scale_row=1.0, coefficient=4.0,
                 reorder=False) -> Model:
    """A tiny MILP whose structural variants the key tests exercise."""
    m = Model("t")
    x = m.add_continuous("x", lb=0.0, ub=10.0)
    b = m.add_binary("b")

    def row1():
        if flip_row:
            m.add_constraint(-scale_row * x - scale_row * coefficient * b
                             >= -scale_row * 8.0)
        else:
            m.add_constraint(scale_row * x + scale_row * coefficient * b
                             <= scale_row * 8.0)

    def row2():
        m.add_constraint(x - 2.0 * b >= -1.0)

    if reorder:
        row2(), row1()
    else:
        row1(), row2()
    m.set_objective(-(x + 2.0 * b))
    return m


def _form(**kwargs):
    return _small_model(**kwargs).to_standard_form()


class TestCanonicalKey:
    def test_stable_across_rebuilds(self):
        assert canonical_form_key(_form()) == canonical_form_key(_form())

    def test_row_order_invariant(self):
        assert canonical_form_key(_form()) == \
            canonical_form_key(_form(reorder=True))

    def test_row_scaling_invariant(self):
        assert canonical_form_key(_form()) == \
            canonical_form_key(_form(scale_row=3.5))

    def test_row_sign_invariant(self):
        """A row and its negation (bounds swapped) are the same constraint."""
        assert canonical_form_key(_form()) == \
            canonical_form_key(_form(flip_row=True))

    def test_detects_coefficient_change(self):
        assert canonical_form_key(_form()) != \
            canonical_form_key(_form(coefficient=4.0001))

    def test_detects_variable_class_change(self):
        m = Model("t")
        x = m.add_continuous("x", lb=0.0, ub=10.0)
        c = m.add_continuous("b", lb=0.0, ub=1.0)  # continuous, not binary
        m.add_constraint(x + 4.0 * c <= 8.0)
        m.add_constraint(x - 2.0 * c >= -1.0)
        m.set_objective(-(x + 2.0 * c))
        assert canonical_form_key(m.to_standard_form()) != \
            canonical_form_key(_form())

    def test_context_splits_keys(self):
        form = _form()
        assert canonical_form_key(form, context=("highs",)) != \
            canonical_form_key(form, context=("bnb",))

    def test_quantization_absorbs_float_noise(self):
        form_a = _form(scale_row=1.0)
        form_b = _form(scale_row=1.0 + 1e-15)
        assert canonical_form_key(form_a) == canonical_form_key(form_b)

    def test_distinct_keys_iff_distinct_texts(self):
        forms = [_form(), _form(coefficient=5.0), _form(reorder=True)]
        texts = [canonical_form_text(f) for f in forms]
        keys = [canonical_form_key(f) for f in forms]
        for i in range(len(forms)):
            for j in range(len(forms)):
                assert (texts[i] == texts[j]) == (keys[i] == keys[j])


def _optimal_solution(model: Model) -> Solution:
    return solve(model, backend="highs")


class TestTiers:
    def test_memory_roundtrip(self):
        model = _small_model()
        form = model.to_standard_form()
        cache = SolveCache()
        key = canonical_form_key(form)
        blob = blob_from_solution(_optimal_solution(model), form)
        cache.store(key, blob)
        found, tier = cache.lookup(key, len(form.variables))
        assert found == blob and tier == "memory"

    def test_lru_eviction(self):
        cache = SolveCache(max_entries=2)
        blob = {"version": cache_mod.BLOB_VERSION,
                "status": "optimal", "objective": 0.0, "values": []}
        for key in ("a", "b", "c"):
            cache.store(key, dict(blob))
        assert cache.n_memory_entries == 2
        found, _ = cache.lookup("a", 0)
        assert found is None  # oldest entry evicted

    def test_disk_roundtrip(self, tmp_path):
        model = _small_model()
        form = model.to_standard_form()
        blob = blob_from_solution(_optimal_solution(model), form)
        key = canonical_form_key(form)
        writer = SolveCache(tmp_path)
        writer.store(key, blob)
        reader = SolveCache(tmp_path)  # fresh memory tier
        found, tier = reader.lookup(key, len(form.variables))
        assert found == blob and tier == "disk"

    @pytest.mark.parametrize("payload", [
        "{ truncated", "", "[1, 2, 3]", "\x00\x01garbage"])
    def test_corrupt_blob_is_miss_and_removed(self, tmp_path, payload):
        cache = SolveCache(tmp_path)
        path = tmp_path / "deadbeef.json"
        path.write_text(payload)
        found, tier = cache.lookup("deadbeef", 3)
        assert found is None and tier is None
        assert not path.exists()

    def test_wrong_column_count_is_miss(self, tmp_path):
        cache = SolveCache(tmp_path)
        blob = {"version": cache_mod.BLOB_VERSION, "status": "optimal",
                "objective": 1.0, "values": [1.0, 2.0]}
        cache.store("k", blob)
        found, _ = cache.lookup("k", 3)
        assert found is None

    def test_env_var_resolution(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        assert resolve_cache_dir(None) == str(tmp_path)
        assert resolve_cache_dir("explicit") == "explicit"
        monkeypatch.delenv(CACHE_DIR_ENV)
        assert resolve_cache_dir(None) is None

    def test_get_cache_shares_instances(self, tmp_path):
        clear_caches()
        assert get_cache(tmp_path) is get_cache(tmp_path)
        assert get_cache(None) is not get_cache(tmp_path)


class TestRegistryIntegration:
    def test_hit_after_store(self):
        model = _small_model()
        cache = SolveCache()
        first = solve(model, backend="highs", cache=cache)
        second = solve(model, backend="highs", cache=cache)
        assert first.status is SolveStatus.OPTIMAL
        assert math.isclose(first.objective, second.objective)
        assert first.telemetry.cache["hit"] is False
        assert second.telemetry.cache["hit"] is True
        assert second.telemetry.cache["recertified"] is True
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_backends_do_not_share_entries(self):
        model = _small_model()
        cache = SolveCache()
        solve(model, backend="highs", cache=cache)
        other = solve(model, backend="bnb", cache=cache)
        assert other.telemetry.cache["hit"] is False

    def test_formulations_do_not_share_entries(self):
        """Regression: the formulation identity must be part of the key
        context.  Two encodings can canonicalize to different structural
        keys anyway, but the *same* structure solved under different
        declared formulations must never alias — the cached telemetry
        provenance (and any encoding-specific postsolve) would leak."""
        from repro.milp.telemetry import SolveContext

        model = _small_model()
        cache = SolveCache()
        first = solve(model, backend="highs", cache=cache,
                      context=SolveContext(formulation="bigm"))
        other = solve(model, backend="highs", cache=cache,
                      context=SolveContext(formulation="unary"))
        assert first.telemetry.cache["hit"] is False
        assert other.telemetry.cache["hit"] is False
        again = solve(model, backend="highs", cache=cache,
                      context=SolveContext(formulation="unary"))
        assert again.telemetry.cache["hit"] is True
        assert again.telemetry.context.formulation == "unary"

    def test_formulation_context_splits_keys(self):
        form = _form()
        base = ("highs", True, False, 0, 0)
        assert canonical_form_key(form, context=base + ("bigm",)) != \
            canonical_form_key(form, context=base + ("unary",))

    def test_outline_does_not_share_entries_with_open_outline(self):
        """Regression: the fixed outline must be part of the key context.
        An open-outline solve and a fixed-outline solve of the same
        structure reach different optima in general, so aliasing them
        would serve a stale result (and stale outline provenance)."""
        from repro.milp.telemetry import SolveContext

        model = _small_model()
        cache = SolveCache()
        open_outline = solve(model, backend="highs", cache=cache)
        fixed = solve(model, backend="highs", cache=cache,
                      context=SolveContext(outline=(10.0, 8.0)))
        assert open_outline.telemetry.cache["hit"] is False
        assert fixed.telemetry.cache["hit"] is False
        again = solve(model, backend="highs", cache=cache,
                      context=SolveContext(outline=(10.0, 8.0)))
        assert again.telemetry.cache["hit"] is True
        assert again.telemetry.context.outline == (10.0, 8.0)
        assert open_outline.telemetry.context.outline is None

    def test_different_outlines_do_not_share_entries(self):
        from repro.milp.telemetry import SolveContext

        model = _small_model()
        cache = SolveCache()
        solve(model, backend="highs", cache=cache,
              context=SolveContext(outline=(10.0, 8.0)))
        other = solve(model, backend="highs", cache=cache,
                      context=SolveContext(outline=(10.0, 9.0)))
        assert other.telemetry.cache["hit"] is False

    def test_outline_context_splits_keys(self):
        from repro.milp.telemetry import SolveContext

        form = _form()
        base = ("highs", True, False, 0, 0)
        open_key = canonical_form_key(
            form, context=base + SolveContext("bigm").key_items())
        fixed_key = canonical_form_key(
            form, context=base + SolveContext("bigm", (10.0, 8.0)).key_items())
        assert open_key != fixed_key
        # Quantization keeps float noise from splitting equal outlines.
        assert SolveContext(outline=(10.0, 8.0)).key_items() == \
            SolveContext(outline=(10.0 + 1e-12, 8.0)).key_items()

    def test_values_rebound_to_requesting_model(self):
        """A hit's values must be keyed by the *new* model's Variables."""
        cache = SolveCache()
        solve(_small_model(), backend="highs", cache=cache)
        rebuilt = _small_model()
        served = solve(rebuilt, backend="highs", cache=cache)
        assert served.telemetry.cache["hit"] is True
        names = {v.name for v in served.values}
        assert names == {v.name
                         for v in rebuilt.to_standard_form().variables}
        for var in rebuilt.to_standard_form().variables:
            assert var in served.values

    def test_non_optimal_is_not_stored(self):
        m = Model("infeasible")
        x = m.add_continuous("x", lb=0.0, ub=1.0)
        m.add_constraint(x >= 2.0)
        m.set_objective(x)
        cache = SolveCache()
        solution = solve(m, backend="highs", cache=cache)
        assert solution.status is not SolveStatus.OPTIMAL
        assert cache.stats.stores == 0
        assert cache.n_memory_entries == 0

    def test_poisoned_hit_is_evicted_and_resolved(self, tmp_path):
        """A blob claiming a wrong objective must fail re-certification,
        be evicted, and the model re-solved correctly."""
        model = _small_model()
        form = model.to_standard_form()
        cache = SolveCache(tmp_path)
        honest = solve(model, backend="highs", cache=cache)
        key = [p.stem for p in tmp_path.glob("*.json")]
        assert len(key) == 1
        path = tmp_path / f"{key[0]}.json"
        poisoned = json.loads(path.read_text())
        poisoned["objective"] = honest.objective - 5.0
        path.write_text(json.dumps(poisoned))
        cache.clear()  # force the disk tier to answer

        solution = solve(model, backend="highs", cache=cache)
        assert solution.telemetry.cache["hit"] is False
        assert math.isclose(solution.objective, honest.objective)
        assert cache.stats.rejected == 1
        assert cache.stats.evictions == 1
        # the honest re-solve overwrote the poisoned blob
        restored = json.loads(path.read_text())
        assert math.isclose(restored["objective"], honest.objective)
        assert len(form.variables) == len(restored["values"])

    def test_store_not_cacheable_annotates_telemetry(self):
        """Even a non-cacheable solve carries miss provenance."""
        m = Model("infeasible")
        x = m.add_continuous("x", lb=0.0, ub=1.0)
        m.add_constraint(x >= 2.0)
        m.set_objective(x)
        cache = SolveCache()
        solution = solve(m, backend="highs", cache=cache)
        assert solution.telemetry.cache is not None
        assert solution.telemetry.cache["hit"] is False

    def test_record_store_rejects_partial_values(self):
        model = _small_model()
        form = model.to_standard_form()
        solution = _optimal_solution(model)
        values = dict(solution.values)
        values.pop(next(iter(values)))
        import dataclasses

        partial = dataclasses.replace(solution, values=values)
        cache = SolveCache()
        assert record_store(cache, "k", partial, form) is False
        assert cache.n_memory_entries == 0


# ---------------------------------------------------------------------------
# pinned keys and telemetry of the solve context
# ---------------------------------------------------------------------------

def _declared(formulation=None, outline=None, eco=None) -> dict:
    """The solve()/solve_many() keyword arguments that declare how a model
    was built."""
    from repro.milp.telemetry import SolveContext

    return {"context": SolveContext(formulation=formulation, outline=outline,
                                    eco=eco)}


def _pinned_doc(telemetry) -> str:
    """``telemetry.to_dict()`` as JSON, with its clock readings zeroed."""
    doc = telemetry.to_dict()
    doc["wall_seconds"] = 0.0
    doc["incumbents"] = [[0.0, obj] for _seconds, obj in doc["incumbents"]]
    doc["cache"]["key_seconds"] = 0.0
    return json.dumps(doc)


#: One case per value of each axis, plus one with every axis set:
#: ``(formulation, outline, eco, presolve, warm start)`` -> the SHA-256
#: cache key, and the SHA-256 of :func:`_pinned_doc`.  Cache keys name the
#: blobs of on-disk cache tiers, so a changed key turns a warm tier cold;
#: ``formulation=None`` and ``"bigm"`` key apart for that reason.  HiGHS
#: reads neither presolve nor a warm start, so those two cases pin the
#: plain case's key and bytes.
CONTEXT_PINS = {
    (None, None, None, False, False): (
        "7595243bbcb8b79d407ea7a62ff2d5e11381bd5210eb8d8c2dead2b674894571",
        "8629cf961e08095769ead6fa0c03a9c83f14ec1712cda401c42901f6b8ec1dbb"),
    ("bigm", None, None, False, False): (
        "b780da3a8f14250ab8a6d2bdf8441345fec526518343abd29af12fc7b131e83c",
        "c8ea6db8a1dcb4fa02768f8a810c80adfa2ac7bf89301fbe473b449bd1062ab3"),
    ("unary", None, None, False, False): (
        "f978789296463bd1b1d77005a8102428593cf81e1ca0963b3b28e2ce4d5f6c20",
        "e6217bc3a5083a971afedb354b5622ab8a1449972062b74559f74b2f096fd373"),
    (None, (10, 8), None, False, False): (
        "72ec00a887a7f31f265bb63dc13e383b87a6acccad8214e39a987324833e37bf",
        "7a146641a9c946f8d2809d062aaaf1d51cd0b0a6cd14918dfdfa46bf45c53037"),
    (None, None, (2, 7), False, False): (
        "86df1ad8745556f515566f721866fe62157d1524565ce5bf513f6ec2f03bc611",
        "ddd9f9c1c97f6124e22447621b29c6f50703d05dd4fd3e869e709063d03d90ef"),
    (None, None, None, True, False): (
        "7595243bbcb8b79d407ea7a62ff2d5e11381bd5210eb8d8c2dead2b674894571",
        "8629cf961e08095769ead6fa0c03a9c83f14ec1712cda401c42901f6b8ec1dbb"),
    (None, None, None, False, True): (
        "7595243bbcb8b79d407ea7a62ff2d5e11381bd5210eb8d8c2dead2b674894571",
        "8629cf961e08095769ead6fa0c03a9c83f14ec1712cda401c42901f6b8ec1dbb"),
    ("unary", (10, 8), (2, 7), True, True): (
        "32f38e55aa8eaf81640a7e4817b704df2e44284c02810ab35e21782094730aa0",
        "c3d28e1a358bfeab59146d2b2f70a294a023421747d8214dbb3b873e3399499c"),
}


class TestContextPins:
    @pytest.fixture
    def keys(self, monkeypatch) -> list[str]:
        """Every cache key the registry computes during the test."""
        seen: list[str] = []

        def recording(form, context=()):
            seen.append(canonical_form_key(form, context))
            return seen[-1]

        monkeypatch.setattr(cache_mod, "canonical_form_key", recording)
        return seen

    @pytest.mark.parametrize("case", list(CONTEXT_PINS),
                             ids=lambda case: "-".join(map(str, case)))
    def test_solve_key_and_telemetry_are_pinned(self, case, keys):
        formulation, outline, eco, presolve, warm = case
        model = _small_model()
        warm_start = {v: 0.0 for v in model.variables} if warm else None
        kwargs = dict(backend="highs", cache=SolveCache(), presolve=presolve,
                      warm_start=warm_start,
                      **_declared(formulation, outline, eco))
        solved = solve(model, **kwargs)
        served = solve(model, **kwargs)
        doc = _pinned_doc(solved.telemetry)
        digest = hashlib.sha256(doc.encode("utf-8")).hexdigest()
        assert (keys, digest) == ([CONTEXT_PINS[case][0]] * 2,
                                  CONTEXT_PINS[case][1]), doc
        # A hit carries the stored solve's telemetry, context included.
        assert served.telemetry.cache["hit"] is True
        assert {**json.loads(_pinned_doc(served.telemetry)), "cache": None} \
            == {**json.loads(doc), "cache": None}

    def test_parallel_batch_keys_match_the_pins(self, keys):
        """solve_many's parent-side keys of a parallel batch are the keys
        solve() computes."""
        from repro.milp.solvers.registry import solve_many

        case = ("unary", (10, 8), (2, 7), True, True)
        models = [_small_model(), _small_model()]
        warm_starts = [{v: 0.0 for v in m.variables} for m in models]
        solutions = solve_many(models, backend="highs", presolve=True,
                               warm_starts=warm_starts, cache=SolveCache(),
                               workers=2, **_declared(*case[:3]))
        assert keys == [CONTEXT_PINS[case][0]] * 2
        assert all(s.telemetry.cache["key"] == keys[0][:16]
                   for s in solutions)
